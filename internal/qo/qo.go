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
// its executor; the learned optimizers (ValueSearch, bao, leon) pick their
// counters and histograms up from here. Any argument may be nil.
func (e *Env) Instrument(tr *obs.Tracer, reg *obs.Registry, clock mlmath.Clock) {
	e.Trace, e.Metrics = tr, reg
	e.Exec.Trace, e.Exec.Metrics, e.Exec.Clock = tr, reg, clock
}

// WorkBuckets are the shared histogram bounds for work-unit metrics.
var WorkBuckets = obs.ExpBuckets(16, 4, 12)

// Run executes a plan and returns its work (latency signal). maxWork > 0
// aborts over-budget plans (Balsa's timeout); the returned work is then the
// work done when the executor stopped, just past the budget, and timedOut is
// true.
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
//
// It is also the replacement-paradigm agent that trains that network in
// phases on plans it gathers itself (TrainOnExpert, TrainOnSearch). NEO,
// Balsa and RTOS are three configurations of it — NewNEO, NewBalsa and
// NewRTOS — that differ in the tree encoder, the exploration rate, and the
// phases each paper runs.
type ValueSearch struct {
	Env *Env
	Enc *planrep.PlanEncoder
	Reg *tree.Regressor
	// Eps is the exploration rate during RL data collection.
	Eps float64
	RNG *mlmath.RNG
	// Experience is NEO's replay buffer: with replay set, every phase adds
	// its experiences here and trains on all of them; otherwise each phase
	// trains on its own experiences only.
	Experience []Experience
	replay     bool
	// bestWork is Balsa's safety budget: the best completed work per query
	// signature, which caps each later execution of the query at
	// safetyBudget times it. Nil runs every plan to completion.
	bestWork map[string]int64
	// TimedOut counts executions the safety budget stopped.
	TimedOut int
	// trained is set by the first phase: it fits the fresh network at 3e-3,
	// every later phase fine-tunes at 1e-3.
	trained bool
}

// agentHidden is the tree encoder's hidden width of NEO, Balsa and RTOS.
const agentHidden = 12

// safetyBudget is Balsa's timeout: an execution stops at this many times
// the best work seen so far for its query.
const safetyBudget = 4

// newAgent builds a value search over env whose value network is a
// TreeLSTM (lstm) or TreeCNN encoder under a 32-unit regression head.
func newAgent(env *Env, lstm bool, eps float64, rng *mlmath.RNG) *ValueSearch {
	pe := planrep.NewPlanEncoder(env.Cat, planrep.FullFeatures())
	var enc tree.Encoder
	if lstm {
		enc = tree.NewTreeLSTMEncoder(pe.FeatDim(), agentHidden, rng)
	} else {
		enc = tree.NewTreeCNNEncoder(pe.FeatDim(), agentHidden, rng)
	}
	reg := tree.NewRegressor(enc, []int{32}, rng)
	return &ValueSearch{Env: env, Enc: pe, Reg: reg, Eps: eps, RNG: rng}
}

// NewNEO is NEO (Marcus et al., VLDB 2019): a tree-convolution value network
// bootstrapped from the expert's executed plans (TrainOnExpert with Work),
// then refined by RL episodes (TrainOnSearch with Work, one round each), every
// phase retraining on the whole replay buffer.
func NewNEO(env *Env, rng *mlmath.RNG) *ValueSearch {
	v := newAgent(env, false, 0.2, rng)
	v.replay = true
	return v
}

// NewBalsa is Balsa (Yang et al., SIGMOD 2022), which learns without expert
// demonstrations: a simulation phase trains on the cost model's estimates of
// its own explored plans (TrainOnSearch with EstCost), and a fine-tuning
// phase executes them under the safety budget (TrainOnSearch with Work).
func NewBalsa(env *Env, rng *mlmath.RNG) *ValueSearch {
	v := newAgent(env, false, 0.3, rng)
	v.bestWork = map[string]int64{}
	return v
}

// NewRTOS is RTOS (Yu et al., ICDE 2020): a Tree-LSTM value network trained
// first on the estimated cost of the expert's plans under every hint set
// (TrainOnExpert with EstCost), then on the executed work of its own explored
// plans (TrainOnSearch with Work).
func NewRTOS(env *Env, rng *mlmath.RNG) *ValueSearch {
	return newAgent(env, true, 0.2, rng)
}

// Plan produces the learned plan for q (no exploration).
func (v *ValueSearch) Plan(q *plan.Query) (*plan.Node, error) {
	return v.BuildPlan(q, false)
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

// candidates enumerates valid join steps and scores each candidate subtree
// with the value network.
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
				score := v.Reg.Predict(v.Enc.Encode(node))
				out = append(out, candidate{left: i, right: j, op: op, node: node, score: score})
			}
		}
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

// Label says what a training phase labels its plans with.
type Label int

const (
	// EstCost labels a plan with the expert cost model's estimate, executing
	// nothing: RTOS's cost phase and Balsa's simulation.
	EstCost Label = iota
	// Work executes the plan — under the safety budget, for Balsa — and
	// labels it with the work done.
	Work
)

// HintPlans returns the expert's plans for q under the standard hint sets,
// in hint-set order; with distinct set, each structurally distinct plan once
// (LEON's candidate set and NEO's bootstrap).
func (e *Env) HintPlans(q *plan.Query, distinct bool) ([]*plan.Node, error) {
	var out []*plan.Node
	seen := map[string]bool{}
	for _, h := range optimizer.StandardHintSets() {
		p, err := e.Opt.Plan(q, h)
		if err != nil {
			return nil, err
		}
		if key := p.String(); !distinct || !seen[key] {
			seen[key] = true
			out = append(out, p)
		}
	}
	return out, nil
}

// TrainOnExpert is a phase that trains on the expert's plans for the queries
// under the standard hint sets: all eight when labeled by EstCost (RTOS's
// cost phase), each distinct one once when executed (NEO's bootstrap).
func (v *ValueSearch) TrainOnExpert(queries []*plan.Query, label Label, epochs int) error {
	var exps []Experience
	for _, q := range queries {
		plans, err := v.Env.HintPlans(q, label == Work)
		if err != nil {
			return err
		}
		for _, p := range plans {
			e, err := v.label(q, p, label)
			if err != nil {
				return err
			}
			exps = append(exps, e)
		}
	}
	v.train(exps, epochs)
	return nil
}

// TrainOnSearch is a phase of rounds over the queries, each planning every
// query with ε-greedy exploration: Balsa's simulation (EstCost) and
// fine-tuning (Work), NEO's episodes and RTOS's latency phase (Work).
func (v *ValueSearch) TrainOnSearch(queries []*plan.Query, rounds int, label Label, epochs int) error {
	var exps []Experience
	for r := 0; r < rounds; r++ {
		for _, q := range queries {
			p, err := v.BuildPlan(q, true)
			if err != nil {
				return err
			}
			e, err := v.label(q, p, label)
			if err != nil {
				return err
			}
			exps = append(exps, e)
		}
		v.Env.Metrics.Counter("qo.agent.rounds").Inc()
	}
	v.train(exps, epochs)
	return nil
}

// label returns p's experience under the label.
func (v *ValueSearch) label(q *plan.Query, p *plan.Node, label Label) (Experience, error) {
	if label == EstCost {
		return Experience{Query: q, Plan: p, LogWork: LogWork(int64(p.EstCost))}, nil
	}
	var sig string
	var budget int64
	if v.bestWork != nil {
		sig = q.Signature()
		budget = safetyBudget * v.bestWork[sig] // 0, unlimited, on first sight
	}
	work, timedOut, err := v.Env.Run(p, budget)
	if err != nil {
		return Experience{}, err
	}
	if timedOut {
		v.TimedOut++ // labeled with the budget: pessimistic but bounded
	} else if best, ok := v.bestWork[sig]; v.bestWork != nil && (!ok || work < best) {
		v.bestWork[sig] = work
	}
	v.Env.Metrics.Histogram("qo.agent.work", WorkBuckets).Observe(float64(work))
	return Experience{Query: q, Plan: p, LogWork: LogWork(work)}, nil
}

// train ends a phase: it fits the value network on the phase's experiences,
// or on the whole replay buffer.
func (v *ValueSearch) train(exps []Experience, epochs int) {
	if v.replay {
		v.Experience = append(v.Experience, exps...)
		exps = v.Experience
	}
	lr := 1e-3
	if !v.trained {
		lr = 3e-3
	}
	v.trained = true
	v.TrainValue(exps, epochs, lr)
}
