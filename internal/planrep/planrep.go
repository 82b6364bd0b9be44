package planrep

import (
	"math"

	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/plan"
	"ml4db/internal/tree"
)

// FeatureConfig selects which feature groups are encoded.
type FeatureConfig struct {
	// Semantic enables operator/table/predicate features.
	Semantic bool
	// Stats enables optimizer-estimate features (EstRows, EstCost).
	Stats bool
	// MaxTables bounds the table one-hot width (tables beyond it share the
	// overflow slot).
	MaxTables int
	// NoTableIdentity drops the table one-hot from the semantic group,
	// keeping only database-agnostic features — the disentanglement that
	// makes pretrained models transfer across databases (§3.1, zero-shot
	// learning).
	NoTableIdentity bool
	// NoPredicates drops the predicate-summary features from the semantic
	// group: the node is described only by operator and table identity, as
	// in early coarse featurizations. The comparative study uses this as
	// its information-poor feature configuration.
	NoPredicates bool
}

// FullFeatures enables both groups.
func FullFeatures() FeatureConfig { return FeatureConfig{Semantic: true, Stats: true, MaxTables: 16} }

// SemanticOnly enables only semantic features.
func SemanticOnly() FeatureConfig { return FeatureConfig{Semantic: true, MaxTables: 16} }

// StatsOnly enables only database-statistics features.
func StatsOnly() FeatureConfig { return FeatureConfig{Stats: true, MaxTables: 16} }

// MinimalFeatures encodes only operator and table identity — no predicates,
// no statistics.
func MinimalFeatures() FeatureConfig {
	return FeatureConfig{Semantic: true, MaxTables: 16, NoPredicates: true}
}

// TransferFeatures enables both groups but drops database-specific table
// identity — the representation used for cross-database pretraining.
func TransferFeatures() FeatureConfig {
	return FeatureConfig{Semantic: true, Stats: true, MaxTables: 16, NoTableIdentity: true}
}

// Name returns a short label for experiment reports.
func (c FeatureConfig) Name() string {
	switch {
	case c.Semantic && c.Stats && c.NoTableIdentity:
		return "transfer"
	case c.Semantic && c.Stats:
		return "full"
	case c.Semantic && c.NoPredicates:
		return "minimal"
	case c.Semantic:
		return "semantic"
	case c.Stats:
		return "stats"
	default:
		return "none"
	}
}

const numOps = 5 // SeqScan, HashJoin, NLJoin, MergeJoin, IndexScan

// PlanEncoder converts physical plan nodes into feature-annotated EncTrees.
type PlanEncoder struct {
	Cat *catalog.Catalog
	Cfg FeatureConfig
	// logRowNorm normalizes log-cardinalities; set from the largest table.
	logRowNorm float64
}

// NewPlanEncoder builds an encoder over the catalog.
func NewPlanEncoder(cat *catalog.Catalog, cfg FeatureConfig) *PlanEncoder {
	if cfg.MaxTables <= 0 {
		cfg.MaxTables = 16
	}
	maxRows := 1
	for _, t := range cat.Tables {
		if t.NumRows() > maxRows {
			maxRows = t.NumRows()
		}
	}
	return &PlanEncoder{Cat: cat, Cfg: cfg, logRowNorm: math.Log(float64(maxRows) + 1)}
}

// FeatDim returns the per-node feature width.
func (pe *PlanEncoder) FeatDim() int {
	d := 0
	if pe.Cfg.Semantic {
		d += numOps // operator one-hot
		if !pe.Cfg.NoPredicates {
			d += 3 // predicate summary
		}
		if !pe.Cfg.NoTableIdentity {
			d += pe.Cfg.MaxTables + 1 // table one-hot + overflow slot
		}
	}
	if pe.Cfg.Stats {
		d += 2
	}
	if d == 0 {
		d = 1 // degenerate config still needs nonzero width
	}
	return d
}

// Encode converts the plan subtree into an EncTree with one feature vector
// per node. Stats features require the plan to have been annotated by the
// optimizer.
func (pe *PlanEncoder) Encode(n *plan.Node) *tree.EncTree {
	t := &tree.EncTree{Feat: pe.nodeFeatures(n)}
	if len(n.Children) > 0 {
		t.Left = pe.Encode(n.Children[0])
	}
	if len(n.Children) > 1 {
		t.Right = pe.Encode(n.Children[1])
	}
	return t
}

func (pe *PlanEncoder) nodeFeatures(n *plan.Node) []float64 {
	f := make([]float64, 0, pe.FeatDim())
	if pe.Cfg.Semantic {
		// Operator one-hot.
		op := make([]float64, numOps)
		if int(n.Op) < numOps {
			op[int(n.Op)] = 1
		}
		f = append(f, op...)
		if !pe.Cfg.NoTableIdentity {
			// Table one-hot with overflow slot (joins leave it zero).
			tbl := make([]float64, pe.Cfg.MaxTables+1)
			if n.IsLeaf() {
				if n.TableID < pe.Cfg.MaxTables {
					tbl[n.TableID] = 1
				} else {
					tbl[pe.Cfg.MaxTables] = 1
				}
			}
			f = append(f, tbl...)
		}
		if !pe.Cfg.NoPredicates {
			// Predicate summary: count, mean normalized center, mean
			// normalized width over the node's filters.
			f = append(f, pe.predSummary(n)...)
		}
	}
	if pe.Cfg.Stats {
		f = append(f,
			math.Log(n.EstRows+1)/pe.logRowNorm,
			math.Log(n.EstCost+1)/(pe.logRowNorm+math.Log(10)),
		)
	}
	if len(f) == 0 {
		f = append(f, 1)
	}
	return f
}

func (pe *PlanEncoder) predSummary(n *plan.Node) []float64 {
	if !n.IsLeaf() || len(n.Filters) == 0 {
		return []float64{0, 0, 0}
	}
	t := pe.Cat.Table(n.TableID)
	var centers, widths float64
	for _, p := range n.Filters {
		lo, hi := domainOf(t, p.Col)
		span := float64(hi-lo) + 1
		plo, phi, ok := p.Range(lo, hi)
		if !ok {
			plo, phi = lo, hi
		}
		if plo < lo {
			plo = lo
		}
		if phi > hi {
			phi = hi
		}
		centers += (float64(plo+phi)/2 - float64(lo)) / span
		widths += (float64(phi-plo) + 1) / span
	}
	k := float64(len(n.Filters))
	return []float64{k / 4, centers / k, widths / k}
}

func domainOf(t *catalog.Table, col int) (int64, int64) {
	if st := t.Columns[col].Stats; st != nil && st.Count > 0 {
		return st.Min, st.Max
	}
	return 0, 1
}
