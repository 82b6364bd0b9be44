package lemo

import (
	"math"

	"ml4db/internal/bandit"
	"ml4db/internal/mlmath"
	"ml4db/internal/qo"
	"ml4db/internal/sqlkit/optimizer"
	"ml4db/internal/sqlkit/plan"
)

// ctxDim is the bandit context width.
const ctxDim = 4

// entry is a cached template plan.
type entry struct {
	// structure is the cached plan with the origin query's filters.
	structure *plan.Node
	// scanRows are the origin query's per-position estimated scan rows,
	// against which new constants are compared.
	scanRows []float64
}

// Lemo is the cache-enhanced optimizer.
type Lemo struct {
	Env *qo.Env
	// PlanningCost is the work-unit penalty of a fresh optimization (the
	// latency a concurrent stream pays for planning).
	PlanningCost float64

	cache  map[string]*entry
	policy *bandit.ThompsonLinear
	rng    *mlmath.RNG

	// Stats counts decisions for reporting.
	Reuses, Reopts, Misses int
}

// New constructs Lemo with the given planning-cost penalty.
func New(env *qo.Env, planningCost float64, rng *mlmath.RNG) *Lemo {
	return &Lemo{
		Env:          env,
		PlanningCost: planningCost,
		cache:        map[string]*entry{},
		policy:       bandit.NewThompsonLinear(2, ctxDim, 0.3, 1),
		rng:          rng,
	}
}

const (
	armReuse = 0
	armReopt = 1
)

// templateKey strips constants: Query.Signature already encodes tables,
// joins, and filter columns/operators but not bound values.
func templateKey(q *plan.Query) string { return q.Signature() }

// scanRowEst returns per-position estimated scan rows for q.
func (l *Lemo) scanRowEst(q *plan.Query) []float64 {
	out := make([]float64, q.NumTables())
	for pos := range q.Tables {
		out[pos] = l.Env.Opt.Est.ScanRows(q, pos)
	}
	return out
}

// context builds the bandit features: constant drift between the cached
// plan's estimated scan cardinalities and the new query's.
func (l *Lemo) context(e *entry, rows []float64) []float64 {
	maxDrift, sumDrift := 0.0, 0.0
	for i := range rows {
		d := math.Abs(math.Log((rows[i] + 1) / (e.scanRows[i] + 1)))
		sumDrift += d
		if d > maxDrift {
			maxDrift = d
		}
	}
	return []float64{1, maxDrift, sumDrift / float64(len(rows)), float64(len(rows)) / 8}
}

// rebind clones the cached structure and substitutes the new query's
// filters into its scan leaves — plan reuse without re-optimization.
func rebind(e *entry, q *plan.Query) *plan.Node {
	p := e.structure.Clone()
	p.Walk(func(n *plan.Node) {
		if n.IsLeaf() {
			n.Filters = q.Filters[n.TablePos]
		}
		n.EstRows, n.EstCost = 0, 0
	})
	return p
}

// Run processes one query and returns its total cost (execution work plus
// planning penalty when a fresh optimization ran) and whether a cached plan
// was reused.
func (l *Lemo) Run(q *plan.Query) (totalCost float64, reused bool, err error) {
	key := templateKey(q)
	rows := l.scanRowEst(q)
	e, ok := l.cache[key]
	if !ok {
		l.Misses++
		cost, err := l.optimizeAndRun(q, key, rows)
		return cost, false, err
	}
	ctx := l.context(e, rows)
	arm, err := l.policy.Select(ctx, l.rng)
	if err != nil {
		return 0, false, err
	}
	if arm == armReuse {
		l.Reuses++
		p := rebind(e, q)
		work, _, err := l.Env.Run(p, 0)
		if err != nil {
			return 0, false, err
		}
		cost := float64(work)
		l.policy.Update(armReuse, ctx, -math.Log(cost+1))
		return cost, true, nil
	}
	l.Reopts++
	cost, err := l.optimizeAndRun(q, key, rows)
	if err != nil {
		return 0, false, err
	}
	l.policy.Update(armReopt, ctx, -math.Log(cost+1))
	return cost, false, nil
}

func (l *Lemo) optimizeAndRun(q *plan.Query, key string, rows []float64) (float64, error) {
	p, err := l.Env.Opt.Plan(q, optimizer.NoHint())
	if err != nil {
		return 0, err
	}
	work, _, err := l.Env.Run(p, 0)
	if err != nil {
		return 0, err
	}
	l.cache[key] = &entry{structure: p, scanRows: rows}
	return float64(work) + l.PlanningCost, nil
}

// CacheSize reports the number of cached templates.
func (l *Lemo) CacheSize() int { return len(l.cache) }
