package qo

import (
	"testing"

	"ml4db/internal/mlmath"
	"ml4db/internal/planrep"
	"ml4db/internal/sqlkit/datagen"
	"ml4db/internal/sqlkit/exec"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/optimizer"
	"ml4db/internal/sqlkit/plan"
	"ml4db/internal/tree"
	"ml4db/internal/workload"
)

func testEnv(t *testing.T) (*Env, *workload.StarGen) {
	t.Helper()
	rng := mlmath.NewRNG(1)
	sch, err := datagen.NewStarSchema(rng, 3000, 150, 3)
	if err != nil {
		t.Fatal(err)
	}
	return NewEnv(sch.Cat), workload.NewStarGen(sch, rng)
}

func newSearch(env *Env, seed uint64) *ValueSearch {
	rng := mlmath.NewRNG(seed)
	pe := planrep.NewPlanEncoder(env.Cat, planrep.FullFeatures())
	enc := tree.NewTreeRNNEncoder(pe.FeatDim(), 8, rng)
	return &ValueSearch{
		Env: env, Enc: pe,
		Reg: tree.NewRegressor(enc, []int{16}, rng),
		Eps: 0.3, RNG: rng,
	}
}

func TestEnvRunAndTimeout(t *testing.T) {
	env, gen := testEnv(t)
	q := gen.QueryWithDims(2)
	p, err := env.Opt.Plan(q, optimizer.NoHint())
	if err != nil {
		t.Fatal(err)
	}
	work, timedOut, err := env.Run(p, 0)
	if err != nil || timedOut {
		t.Fatalf("Run: %v timedOut=%v", err, timedOut)
	}
	if work <= 0 {
		t.Fatal("no work")
	}
	_, timedOut, err = env.Run(p, work/2)
	if err != nil {
		t.Fatal(err)
	}
	if !timedOut {
		t.Error("expected timeout under half budget")
	}
}

func TestValueSearchLearnsToAvoidNLJoins(t *testing.T) {
	env, gen := testEnv(t)
	vs := newSearch(env, 3)
	// Collect diverse experience: every hint-set plan, executed.
	var exps []Experience
	var queries []*plan.Query
	for i := 0; i < 10; i++ {
		q := gen.QueryWithDims(2)
		queries = append(queries, q)
		for _, h := range optimizer.StandardHintSets() {
			p, err := env.Opt.Plan(q, h)
			if err != nil {
				t.Fatal(err)
			}
			work, _, err := env.Run(p, 0)
			if err != nil {
				t.Fatal(err)
			}
			exps = append(exps, Experience{Query: q, Plan: p, LogWork: LogWork(work)})
		}
	}
	vs.TrainValue(exps, 25, 3e-3)
	// The trained policy should produce plans far cheaper than the worst
	// hint (nl-only) and in the ballpark of the expert.
	var wLearned, wExpert, wWorst int64
	for _, q := range queries {
		p, err := vs.BuildPlan(q, false)
		if err != nil {
			t.Fatal(err)
		}
		w, _, err := env.Run(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		wLearned += w
		pe, _ := env.Opt.Plan(q, optimizer.NoHint())
		we, _, _ := env.Run(pe, 0)
		wExpert += we
		pw, _ := env.Opt.Plan(q, optimizer.HintSet{Name: "nl", JoinOps: []plan.OpType{plan.OpNLJoin}})
		ww, _, _ := env.Run(pw, 0)
		wWorst += ww
	}
	if wLearned >= wWorst {
		t.Errorf("learned %d not better than worst hint %d", wLearned, wWorst)
	}
	if float64(wLearned) > 5*float64(wExpert) {
		t.Errorf("learned %d far above expert %d on training queries", wLearned, wExpert)
	}
}

func TestTrainValueReducesPredictionLoss(t *testing.T) {
	env, gen := testEnv(t)
	vs := newSearch(env, 4)
	var exps []Experience
	for i := 0; i < 8; i++ {
		q := gen.QueryWithDims(2)
		for _, h := range optimizer.StandardHintSets()[:4] {
			p, err := env.Opt.Plan(q, h)
			if err != nil {
				t.Fatal(err)
			}
			work, _, err := env.Run(p, 0)
			if err != nil {
				t.Fatal(err)
			}
			exps = append(exps, Experience{Query: q, Plan: p, LogWork: LogWork(work)})
		}
	}
	lossBefore := predLoss(vs, exps)
	vs.TrainValue(exps, 30, 3e-3)
	lossAfter := predLoss(vs, exps)
	if lossAfter >= lossBefore {
		t.Errorf("training did not reduce loss: %v → %v", lossBefore, lossAfter)
	}
}

func predLoss(vs *ValueSearch, exps []Experience) float64 {
	s := 0.0
	for _, e := range exps {
		vs.Env.Opt.Annotate(e.Query, e.Plan)
		d := vs.Reg.Predict(vs.Enc.Encode(e.Plan)) - e.LogWork
		s += d * d
	}
	return s / float64(len(exps))
}

func TestBuildPlanRejectsDisconnected(t *testing.T) {
	env, _ := testEnv(t)
	vs := newSearch(env, 5)
	q := plan.NewQuery(0, 1) // no join conditions
	if _, err := vs.BuildPlan(q, false); err == nil {
		t.Error("expected disconnected error")
	}
}

// TestBuildPlanCarriesEveryConditionOfACyclicQuery: on a triangle join graph
// the value search — greedy and exploring alike — builds plans whose join
// nodes carry all three conditions (the closing edge rides on whichever join
// first has both its tables below it), so the 200-row chain join shrinks to
// the one row the third condition leaves. A condition no join can carry is an
// error, not a dropped predicate.
func TestBuildPlanCarriesEveryConditionOfACyclicQuery(t *testing.T) {
	sch, err := datagen.NewChainSchema(mlmath.NewRNG(7), []int{200, 200, 200})
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(sch.Cat)
	vs := newSearch(env, 3)
	on := func(lt, lc, rt, rc int) expr.JoinCond {
		return expr.JoinCond{LeftTable: lt, LeftCol: lc, RightTable: rt, RightCol: rc}
	}
	q := plan.NewQuery(sch.TableIDs...).AddJoin(on(0, 1, 1, 0)).AddJoin(on(1, 1, 2, 0)).AddJoin(on(0, 0, 2, 0))
	for i := 0; i < 12; i++ {
		p, err := vs.BuildPlan(q, i%2 == 0)
		if err != nil {
			t.Fatal(err)
		}
		carried := 0
		p.Walk(func(n *plan.Node) { carried += len(n.Conds) })
		res, err := env.Exec.Execute(p, exec.Options{})
		if err != nil {
			t.Fatalf("%v\n%s", err, p)
		}
		if carried != 3 || len(res.Rows) != 1 {
			t.Fatalf("plan carries %d of 3 conditions and returns %d rows, want 3 and 1\n%s", carried, len(res.Rows), p)
		}
	}
	q.AddJoin(on(1, 0, 1, 2)) // t1.id = t1.attr: both sides one table position
	if p, err := vs.BuildPlan(q, false); err == nil {
		t.Fatalf("BuildPlan returned a plan for a condition no join can carry:\n%s", p)
	}
}
