package qo

import (
	"testing"

	"ml4db/internal/mlmath"
	"ml4db/internal/obs"
	"ml4db/internal/sqlkit/datagen"
	"ml4db/internal/sqlkit/optimizer"
	"ml4db/internal/sqlkit/plan"
	"ml4db/internal/workload"
)

// The tests of NEO, Balsa and RTOS: the three configurations of ValueSearch.

func starSetup(t *testing.T, seed uint64) (*Env, *workload.StarGen) {
	t.Helper()
	rng := mlmath.NewRNG(seed)
	sch, err := datagen.NewStarSchema(rng, 3000, 120, 3)
	if err != nil {
		t.Fatal(err)
	}
	return NewEnv(sch.Cat), workload.NewStarGen(sch, rng)
}

func chainSetup(t *testing.T, seed uint64) (*Env, *workload.ChainGen) {
	t.Helper()
	rng := mlmath.NewRNG(seed)
	sch, err := datagen.NewChainSchema(rng, []int{2000, 1500, 1000, 500})
	if err != nil {
		t.Fatal(err)
	}
	return NewEnv(sch.Cat), workload.NewChainGen(sch, rng)
}

// work plans every query with plan and returns the summed executed work.
func work(t *testing.T, env *Env, queries []*plan.Query, plan func(*plan.Query) (*plan.Node, error)) int64 {
	t.Helper()
	var total int64
	for _, q := range queries {
		p, err := plan(q)
		if err != nil {
			t.Fatal(err)
		}
		w, _, err := env.Run(p, 0)
		if err != nil {
			t.Fatalf("%v\n%s", err, p)
		}
		total += w
	}
	return total
}

func expertPlan(env *Env, h optimizer.HintSet) func(*plan.Query) (*plan.Node, error) {
	return func(q *plan.Query) (*plan.Node, error) { return env.Opt.Plan(q, h) }
}

var nlOnly = optimizer.HintSet{Name: "nl", JoinOps: []plan.OpType{plan.OpNLJoin}}

// TestNeoBootstrapAndPlan: NEO's bootstrap keeps each query's distinct
// hint-set plans in its replay buffer, an episode adds one explored plan per
// query, and the trained agent plans within 6× the expert's work.
func TestNeoBootstrapAndPlan(t *testing.T) {
	env, gen := starSetup(t, 1)
	n := NewNEO(env, mlmath.NewRNG(2))
	var train []*plan.Query
	for i := 0; i < 12; i++ {
		train = append(train, gen.QueryWithDims(2))
	}
	distinct := 0
	for _, q := range train {
		plans, err := env.HintPlans(q, true)
		if err != nil {
			t.Fatal(err)
		}
		distinct += len(plans)
	}
	if distinct <= len(train) || distinct >= len(train)*len(optimizer.StandardHintSets()) {
		t.Fatalf("%d distinct hint-set plans for %d queries: the bootstrap dedupe is untested", distinct, len(train))
	}
	if err := n.TrainOnExpert(train, Work, 15); err != nil {
		t.Fatal(err)
	}
	if len(n.Experience) != distinct {
		t.Errorf("bootstrap buffered %d experiences, want the %d distinct hint-set plans", len(n.Experience), distinct)
	}
	if err := n.TrainOnSearch(train, 1, Work, 10); err != nil {
		t.Fatal(err)
	}
	if len(n.Experience) != distinct+len(train) {
		t.Errorf("after an episode the buffer holds %d experiences, want %d", len(n.Experience), distinct+len(train))
	}
	wNeo, wExpert := work(t, env, train, n.Plan), work(t, env, train, expertPlan(env, optimizer.NoHint()))
	if float64(wNeo) > 6*float64(wExpert) {
		t.Errorf("NEO work %d vs expert %d on training queries", wNeo, wExpert)
	}
}

// TestNeoColdStartIsBad pins the robustness limitation: an untrained NEO
// (random value network) produces plans far worse than the expert.
func TestNeoColdStartIsBad(t *testing.T) {
	env, gen := starSetup(t, 3)
	n := NewNEO(env, mlmath.NewRNG(4))
	var queries []*plan.Query
	for i := 0; i < 8; i++ {
		queries = append(queries, gen.QueryWithDims(2))
	}
	wCold, wExpert := work(t, env, queries, n.Plan), work(t, env, queries, expertPlan(env, optimizer.NoHint()))
	if wCold <= wExpert {
		t.Skipf("cold NEO happened to find good plans (wCold=%d, wExpert=%d); the bench measures the distribution", wCold, wExpert)
	}
}

// TestBalsaSimulationPhaseUsesNoExecution: Balsa's simulation labels its
// explored plans with estimated cost, executing nothing, and already plans
// better than the all-nested-loop disaster. It runs E17's simulation size
// (8 rounds, 30 epochs): at 2 rounds and 10 epochs the sim-only policy beat
// the disaster on only 6 of 10 schema seeds.
func TestBalsaSimulationPhaseUsesNoExecution(t *testing.T) {
	env, gen := starSetup(t, 1)
	reg := obs.NewRegistry()
	env.Instrument(nil, reg, nil)
	b := NewBalsa(env, mlmath.NewRNG(2))
	var train []*plan.Query
	for i := 0; i < 8; i++ {
		train = append(train, gen.QueryWithDims(2))
	}
	if err := b.TrainOnSearch(train, 8, EstCost, 30); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("exec.queries").Value(); n != 0 || len(b.bestWork) != 0 {
		t.Errorf("simulation phase executed %d plans", n)
	}
	if wSim, wWorst := work(t, env, train, b.Plan), work(t, env, train, expertPlan(env, nlOnly)); wSim >= wWorst {
		t.Errorf("simulation-trained Balsa (%d) no better than disaster plans (%d)", wSim, wWorst)
	}
}

// TestBalsaFineTuneTimeoutBoundsDisasters: fine-tuning records each query's
// best completed work, and a later plan that would do more than
// safetyBudget times it is stopped there and labeled with that work.
func TestBalsaFineTuneTimeoutBoundsDisasters(t *testing.T) {
	env, gen := starSetup(t, 3)
	b := NewBalsa(env, mlmath.NewRNG(4))
	var train []*plan.Query
	for i := 0; i < 6; i++ {
		train = append(train, gen.QueryWithDims(2))
	}
	if err := b.TrainOnSearch(train, 1, EstCost, 8); err != nil {
		t.Fatal(err)
	}
	if err := b.TrainOnSearch(train, 3, Work, 8); err != nil {
		t.Fatal(err)
	}
	if len(b.bestWork) != len(train) {
		t.Fatalf("fine-tuning recorded the best work of %d queries, want %d", len(b.bestWork), len(train))
	}
	disasters := 0
	for _, q := range train {
		plans, err := env.HintPlans(q, true)
		if err != nil {
			t.Fatal(err)
		}
		best := b.bestWork[q.Signature()]
		for _, p := range plans {
			w, _, err := env.Run(p, 0)
			if err != nil {
				t.Fatal(err)
			}
			if w <= safetyBudget*best {
				continue
			}
			disasters++
			timedOut := b.TimedOut
			e, err := b.label(q, p, Work)
			if err != nil {
				t.Fatal(err)
			}
			// The executor stops at the first work unit past the budget.
			if limit := LogWork(safetyBudget*best + 1); b.TimedOut != timedOut+1 || e.LogWork > limit {
				t.Errorf("plan over the budget labeled %.3f, %d timeouts; want at most %.3f, one timeout\n%s", e.LogWork, b.TimedOut-timedOut, limit, p)
			}
			if b.bestWork[q.Signature()] != best {
				t.Error("a timed-out execution changed the best work")
			}
		}
	}
	if disasters == 0 {
		t.Fatal("no hint-set plan exceeds the safety budget: the timeout is untested")
	}
}

// TestRTOSTwoPhaseTraining: after the cost and latency phases RTOS plans
// far better than the worst join-operator choice and within 6× the expert.
func TestRTOSTwoPhaseTraining(t *testing.T) {
	env, gen := chainSetup(t, 1)
	r := NewRTOS(env, mlmath.NewRNG(2))
	var train []*plan.Query
	for i := 0; i < 8; i++ {
		train = append(train, gen.Query(3))
	}
	if err := r.TrainOnExpert(train, EstCost, 25); err != nil {
		t.Fatal(err)
	}
	if err := r.TrainOnSearch(train, 2, Work, 15); err != nil {
		t.Fatal(err)
	}
	wR := work(t, env, train, r.Plan)
	if wWorst := work(t, env, train, expertPlan(env, nlOnly)); wR >= wWorst {
		t.Errorf("RTOS %d not better than worst order %d", wR, wWorst)
	}
	if wExpert := work(t, env, train, expertPlan(env, optimizer.NoHint())); float64(wR) > 6*float64(wExpert) {
		t.Errorf("RTOS %d far above expert %d", wR, wExpert)
	}
}

// TestRTOSCostPhaseAloneHelps: the cost phase alone executes nothing and,
// summed over three model seeds, improves on the cold policies of the same
// initial weights. It trains 25 epochs, as TestRTOSTwoPhaseTraining's cost
// phase does: after 12, 2 of 10 schema seeds gave a policy far worse than
// cold.
func TestRTOSCostPhaseAloneHelps(t *testing.T) {
	env, gen := chainSetup(t, 3)
	reg := obs.NewRegistry()
	env.Instrument(nil, reg, nil)
	var train []*plan.Query
	for i := 0; i < 8; i++ {
		train = append(train, gen.Query(3))
	}
	executed := reg.Counter("exec.queries")
	var wTrained, wCold int64
	for seed := uint64(4); seed < 7; seed++ {
		trained, cold := NewRTOS(env, mlmath.NewRNG(seed)), NewRTOS(env, mlmath.NewRNG(seed))
		before := executed.Value()
		if err := trained.TrainOnExpert(train, EstCost, 25); err != nil {
			t.Fatal(err)
		}
		if n := executed.Value() - before; n != 0 {
			t.Fatalf("cost phase executed %d plans", n)
		}
		wTrained += work(t, env, train, trained.Plan)
		wCold += work(t, env, train, cold.Plan)
	}
	if wTrained >= wCold {
		t.Errorf("cost-phase training did not beat the cold policies (trained=%d cold=%d)", wTrained, wCold)
	}
}
