package survey

import "sort"

// Area classifies what database component a publication targets.
type Area int

// Publication areas.
const (
	AreaIndex Area = iota
	AreaQueryOptimizer
	AreaEstimation
	AreaFoundation
)

// String implements fmt.Stringer.
func (a Area) String() string {
	switch a {
	case AreaIndex:
		return "index"
	case AreaQueryOptimizer:
		return "query-optimizer"
	case AreaEstimation:
		return "estimation"
	case AreaFoundation:
		return "foundation"
	default:
		return "other"
	}
}

// Paradigm is the paper's central taxonomy axis.
type Paradigm int

// The two paradigms of §3.2 (plus not-applicable for non-component work).
const (
	Replacement Paradigm = iota
	MLEnhanced
	NotApplicable
)

// String implements fmt.Stringer.
func (p Paradigm) String() string {
	switch p {
	case Replacement:
		return "replacement"
	case MLEnhanced:
		return "ML-enhanced"
	default:
		return "n/a"
	}
}

// Publication is one corpus entry.
type Publication struct {
	Key      string // short name used in the paper
	Title    string
	Venue    string // publishing venue
	Year     int
	Area     Area
	Paradigm Paradigm
	// MajorVenue marks SIGMOD/VLDB-family venues, the population Figure 1
	// counts.
	MajorVenue bool
}

// Corpus returns the embedded bibliography: every system publication the
// paper cites, tagged for the Figure 1 count.
func Corpus() []Publication {
	return []Publication{
		// --- Learned / ML-enhanced indexes ---
		{"RMI", "The case for learned index structures", "SIGMOD", 2018, AreaIndex, Replacement, true},
		{"ZM", "Learned index for spatial queries", "MDM", 2019, AreaIndex, Replacement, false},
		{"ALEX", "ALEX: an updatable adaptive learned index", "SIGMOD", 2020, AreaIndex, Replacement, true},
		{"PGM", "The PGM-index: a fully-dynamic compressed learned index", "VLDB", 2020, AreaIndex, Replacement, true},
		{"RSMI", "Effectively learning spatial indices", "VLDB", 2020, AreaIndex, Replacement, true},
		{"LISA", "LISA: A learned index structure for spatial data", "SIGMOD", 2020, AreaIndex, Replacement, true},
		{"RadixSpline", "RadixSpline: a single-pass learned index", "aiDM@SIGMOD", 2020, AreaIndex, Replacement, true},
		{"APEX", "APEX: A high-performance learned index on persistent memory", "VLDB", 2021, AreaIndex, Replacement, true},
		{"LIB", "Learned Index Benefits: ML based index performance estimation", "VLDB", 2022, AreaIndex, MLEnhanced, true},
		{"RW-tree", "RW-Tree: A learned workload-aware framework for R-tree construction", "ICDE", 2022, AreaIndex, MLEnhanced, false},
		{"AI+R", "The AI+R-tree: an instance-optimized R-tree", "MDM", 2022, AreaIndex, MLEnhanced, false},
		{"RLR-tree", "The RLR-Tree: A reinforcement learning based R-tree for spatial data", "SIGMOD", 2023, AreaIndex, MLEnhanced, true},
		{"PLATON", "PLATON: Top-down R-tree packing with learned partition policy", "SIGMOD", 2023, AreaIndex, MLEnhanced, true},
		{"PiecewiseSFC", "Towards designing and learning piecewise space-filling curves", "VLDB", 2023, AreaIndex, MLEnhanced, true},

		// --- Learned / ML-enhanced query optimizers ---
		{"DQ", "Learning to optimize join queries with deep RL", "arXiv", 2018, AreaQueryOptimizer, Replacement, false},
		{"ReJOIN", "Deep reinforcement learning for join order enumeration", "aiDM@SIGMOD", 2018, AreaQueryOptimizer, Replacement, true},
		{"NEO", "Neo: A learned query optimizer", "VLDB", 2019, AreaQueryOptimizer, Replacement, true},
		{"RTOS", "Reinforcement learning with Tree-LSTM for join order selection", "ICDE", 2020, AreaQueryOptimizer, Replacement, false},
		{"BAO", "Bao: Making learned query optimization practical", "SIGMOD", 2021, AreaQueryOptimizer, MLEnhanced, true},
		{"Steering", "Steering query optimizers: a practical take on big data workloads", "SIGMOD", 2021, AreaQueryOptimizer, MLEnhanced, true},
		{"Balsa", "Balsa: Learning a query optimizer without expert demonstrations", "SIGMOD", 2022, AreaQueryOptimizer, Replacement, true},
		{"MSSteer", "Deploying a steered query optimizer in production at Microsoft", "SIGMOD", 2022, AreaQueryOptimizer, MLEnhanced, true},
		{"LEON", "Leon: a new framework for ML-aided query optimization", "VLDB", 2023, AreaQueryOptimizer, MLEnhanced, true},
		{"AutoSteer", "AutoSteer: Learned query optimization for any SQL database", "VLDB", 2023, AreaQueryOptimizer, MLEnhanced, true},
		{"ParamTree", "Rethinking learned cost models: why start from scratch?", "SIGMOD", 2023, AreaQueryOptimizer, MLEnhanced, true},
		{"Lemo", "Lemo: A cache-enhanced learned optimizer for concurrent queries", "SIGMOD", 2023, AreaQueryOptimizer, MLEnhanced, true},

		// --- Estimation / advisors / foundations (outside Figure 1's count) ---
		{"E2E-Cost", "An end-to-end learning-based cost estimator", "VLDB", 2019, AreaEstimation, NotApplicable, true},
		{"AIMeetsAI", "AI meets AI: leveraging query executions to improve index recommendations", "SIGMOD", 2019, AreaEstimation, NotApplicable, true},
		{"Plan-Cost", "Deep RL for join order enumeration (cost model)", "aiDM@SIGMOD", 2018, AreaEstimation, NotApplicable, true},
		{"AVGDL", "Automatic view generation with deep learning and RL", "ICDE", 2020, AreaEstimation, NotApplicable, false},
		{"Prestroid", "Efficient deep learning pipelines for accurate cost estimations", "SIGMOD", 2021, AreaEstimation, NotApplicable, true},
		{"NNGP", "Lightweight and accurate cardinality estimation by NN gaussian process", "SIGMOD", 2022, AreaEstimation, NotApplicable, true},
		{"Warper", "Warper: Efficiently adapting learned cardinality estimators", "SIGMOD", 2022, AreaEstimation, NotApplicable, true},
		{"SAM", "SAM: Database generation from query workloads", "SIGMOD", 2022, AreaEstimation, NotApplicable, true},
		{"QueryFormer", "QueryFormer: A tree transformer model for query plan representation", "VLDB", 2022, AreaFoundation, NotApplicable, true},
		{"ZeroShot", "One model to rule them all: towards zero-shot learning for databases", "CIDR", 2021, AreaFoundation, NotApplicable, false},
		{"PlanEncoders", "Database workload characterization with query plan encoders", "VLDB", 2021, AreaFoundation, NotApplicable, true},
		{"MTMLF", "A unified transferable model for ML-enhanced DBMS", "CIDR", 2022, AreaFoundation, NotApplicable, false},
		{"CEDA", "CEDA: learned cardinality estimation with domain adaptation", "VLDB", 2023, AreaEstimation, NotApplicable, true},
		{"DDUp", "Detect, distill and update: learned DB systems facing OOD data", "SIGMOD", 2023, AreaEstimation, NotApplicable, true},
		{"RobustCE", "Robust query driven cardinality estimation under changing workloads", "VLDB", 2023, AreaEstimation, NotApplicable, true},
	}
}

// TrendPoint is one year of Figure 1.
type TrendPoint struct {
	Year        int
	Replacement int
	MLEnhanced  int
}

// Figure1 counts major-venue index & query-optimizer publications per year
// and paradigm — the paper's Figure 1 series.
func Figure1() []TrendPoint {
	counts := map[int]*TrendPoint{}
	for _, p := range Corpus() {
		if !p.MajorVenue || (p.Area != AreaIndex && p.Area != AreaQueryOptimizer) {
			continue
		}
		tp, ok := counts[p.Year]
		if !ok {
			tp = &TrendPoint{Year: p.Year}
			counts[p.Year] = tp
		}
		switch p.Paradigm {
		case Replacement:
			tp.Replacement++
		case MLEnhanced:
			tp.MLEnhanced++
		}
	}
	var years []int
	for y := range counts {
		years = append(years, y)
	}
	sort.Ints(years)
	out := make([]TrendPoint, 0, len(years))
	for _, y := range years {
		out = append(out, *counts[y])
	}
	return out
}

// Table1Row is one row of Table 1, extended with the implementing component
// of this repository.
type Table1Row struct {
	Method      string
	Application string
	TreeModel   string
	// Implementation is the package/type in this repo realizing the method's
	// representation strategy; for BAO, the linear reward model over plan
	// summary features that qo/bao uses in place of a tree convolution.
	Implementation string
}

// Table1 returns the paper's Table 1 with implementation pointers.
func Table1() []Table1Row {
	return []Table1Row{
		{"AVGDL", "View Selection", "LSTM", "tree.LSTMEncoder"},
		{"AIMeetsAI", "Index Selection", "Feature Vector", "tree.FlatEncoder"},
		{"ReJOIN", "Join Order Selection", "Feature Vector", "tree.FlatEncoder"},
		{"BAO", "Optimizer", "TreeCNN", "bandit.ThompsonLinear, 9 plan features (qo/bao)"},
		{"NEO", "Optimizer", "TreeCNN", "tree.TreeCNNEncoder (qo.NewNEO)"},
		{"Prestroid", "Cost Estimation", "TreeCNN", "tree.TreeCNNEncoder"},
		{"E2E-Cost", "Cost/Card Estimation", "TreeLSTM", "tree.TreeLSTMEncoder"},
		{"RTOS", "Join Order Selection", "TreeLSTM", "tree.TreeLSTMEncoder (qo.NewRTOS)"},
		{"Plan-Cost", "Cost Estimation", "TreeRNN", "tree.TreeRNNEncoder"},
		{"QueryFormer", "General Purpose", "Transformer", "tree.TransformerEncoder"},
	}
}
