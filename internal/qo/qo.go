package qo

import (
	"errors"
	"fmt"
	"math"

	"ml4db/internal/mlmath"
	"ml4db/internal/nn"
	"ml4db/internal/obs"
	"ml4db/internal/planrep"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/exec"
	"ml4db/internal/sqlkit/optimizer"
	"ml4db/internal/sqlkit/plan"
	"ml4db/internal/tree"
)

// Env bundles the database substrate a learned optimizer interacts with.
type Env struct {
	Cat  *catalog.Catalog
	Opt  *optimizer.Optimizer
	Exec *exec.Executor
	// Trace and Metrics instrument the env's executions and the learned
	// agents built on it. Nil (the default) keeps everything off and free;
	// attach both with Instrument.
	Trace   *obs.Tracer
	Metrics *obs.Registry
}

// NewEnv builds an environment over the catalog with the expert optimizer
// and executor.
func NewEnv(cat *catalog.Catalog) *Env {
	return &Env{Cat: cat, Opt: optimizer.New(cat), Exec: exec.New(cat)}
}

// Instrument attaches a tracer, metrics registry, and clock to the env and
// its executor; the agents (bao, balsa, leon, neo) pick their counters and
// histograms up from here. Any argument may be nil.
func (e *Env) Instrument(tr *obs.Tracer, reg *obs.Registry, clock mlmath.Clock) {
	e.Trace, e.Metrics = tr, reg
	e.Exec.Trace, e.Exec.Metrics, e.Exec.Clock = tr, reg, clock
}

// WorkBuckets are the shared histogram bounds for work-unit metrics.
var WorkBuckets = obs.ExpBuckets(16, 4, 12)

// Run executes a plan and returns its work (latency signal). maxWork > 0
// aborts over-budget plans (Balsa's timeout); the returned work is then the
// budget and timedOut is true.
func (e *Env) Run(p *plan.Node, maxWork int64) (work int64, timedOut bool, err error) {
	res, err := e.Exec.Execute(p, exec.Options{Budget: &exec.Budget{MaxWork: maxWork}, Output: exec.CountOnly})
	if errors.Is(err, exec.ErrWorkBudgetExceeded) {
		e.Metrics.Counter("qo.env.timeouts").Inc()
		return res.Work, true, nil
	}
	if err != nil {
		return 0, false, err
	}
	return res.Work, false, nil
}

// LogWork converts a work measurement to the log-scale regression target.
func LogWork(work int64) float64 { return math.Log(float64(work) + 1) }

// ValueSearch builds complete plans greedily with a learned value function:
// starting from scans, it repeatedly applies the valid (subtree, subtree,
// operator) join whose resulting partial plan the value network scores
// cheapest — NEO's plan search with a greedy frontier.
type ValueSearch struct {
	Env *Env
	Enc *planrep.PlanEncoder
	Reg *tree.Regressor
	// Eps is the exploration rate during RL data collection.
	Eps float64
	RNG *mlmath.RNG
	// Pool parallelizes candidate scoring during plan search and training.
	// Scoring is read-only per candidate, so search decisions are
	// bit-identical for any worker count; nil scores serially.
	Pool *mlmath.Pool
}

// candidate is a possible join step.
type candidate struct {
	left, right int // forest indexes
	op          plan.OpType
	node        *plan.Node
	score       float64
}

// BuildPlan constructs a complete plan for q. With explore true, each step
// is ε-greedy over the value scores.
func (v *ValueSearch) BuildPlan(q *plan.Query, explore bool) (*plan.Node, error) {
	if err := optimizer.CheckJoins(q); err != nil {
		return nil, err
	}
	n := q.NumTables()
	forest := make([]*plan.Node, 0, n)
	for pos := 0; pos < n; pos++ {
		forest = append(forest, plan.NewScan(pos, q.Tables[pos], q.Filters[pos]))
	}
	for len(forest) > 1 {
		cands := v.candidates(q, forest)
		if len(cands) == 0 {
			return nil, fmt.Errorf("qo: disconnected join graph")
		}
		pick := 0
		if explore && v.RNG.Float64() < v.Eps {
			pick = v.RNG.Intn(len(cands))
		} else {
			best := math.Inf(1)
			for i, c := range cands {
				if c.score < best {
					best, pick = c.score, i
				}
			}
		}
		c := cands[pick]
		var next []*plan.Node
		for i, f := range forest {
			if i != c.left && i != c.right {
				next = append(next, f)
			}
		}
		forest = append(next, c.node)
	}
	root := forest[0]
	if err := optimizer.CheckConds(q, root); err != nil {
		return nil, err
	}
	v.Env.Opt.Annotate(q, root)
	return root, nil
}

// candidates enumerates valid join steps and scores them with the value
// network in one batched inference pass: enumeration and annotation stay
// serial (Annotate mutates plan nodes), then every candidate subtree is
// encoded and scored in parallel on v.Pool.
func (v *ValueSearch) candidates(q *plan.Query, forest []*plan.Node) []candidate {
	var out []candidate
	for i := range forest {
		for j := range forest {
			if i == j {
				continue
			}
			conds := optimizer.CrossingConds(q, forest[i], forest[j])
			if len(conds) == 0 {
				continue
			}
			for _, op := range plan.AllJoinOps {
				node := plan.NewJoin(op, forest[i], forest[j], conds...)
				v.Env.Opt.Annotate(q, node)
				out = append(out, candidate{left: i, right: j, op: op, node: node})
			}
		}
	}
	trees := make([]*tree.EncTree, len(out))
	v.Pool.ParallelFor(len(out), func(lo, hi int) {
		for c := lo; c < hi; c++ {
			trees[c] = v.Enc.Encode(out[c].node)
		}
	})
	for c, score := range v.Reg.PredictBatch(trees, v.Pool) {
		out[c].score = score
	}
	return out
}

// Experience is one labeled execution.
type Experience struct {
	Query *plan.Query
	Plan  *plan.Node
	// LogWork is the log-scale latency label.
	LogWork float64
}

// TrainValue fits the value network on the experiences. Following NEO, each
// *partial* plan (every join subtree of an executed plan) is a training
// sample labeled with the episode's final latency: the network learns "what
// total cost does a plan containing this subtree lead to", which is exactly
// the quantity the greedy search compares candidates on.
func (v *ValueSearch) TrainValue(exps []Experience, epochs int, lr float64) {
	var trees []*tree.EncTree
	var ys []float64
	for _, e := range exps {
		v.Env.Opt.Annotate(e.Query, e.Plan)
		e.Plan.Walk(func(n *plan.Node) {
			if n.IsLeaf() {
				return
			}
			trees = append(trees, v.Enc.Encode(n))
			ys = append(ys, e.LogWork)
		})
	}
	v.Reg.Fit(trees, ys, tree.FitOptions{
		Epochs: epochs, BatchSize: 16,
		Optimizer: nn.NewAdam(lr), RNG: v.RNG,
	})
}
