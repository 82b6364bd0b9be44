package qo_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"ml4db/internal/mlmath"
	"ml4db/internal/planrep"
	"ml4db/internal/qo"
	"ml4db/internal/qo/leon"
	"ml4db/internal/sqlkit/datagen"
	"ml4db/internal/sqlkit/exec"
	"ml4db/internal/sqlkit/optimizer"
	"ml4db/internal/sqlkit/plan"
	"ml4db/internal/tree"
	"ml4db/internal/workload"
)

// TestBuildPlanProducesValidExecutablePlans: every learned planner — a bare
// value search, greedy and exploring; NEO, Balsa and RTOS untrained and after
// a short training; and LEON — returns exactly the expert plan's rows. The
// output names every column by (table position, column), so plans with
// different join orders yield comparable rows, compared as multisets.
func TestBuildPlanProducesValidExecutablePlans(t *testing.T) {
	rng := mlmath.NewRNG(1)
	sch, err := datagen.NewStarSchema(rng, 3000, 150, 3)
	if err != nil {
		t.Fatal(err)
	}
	env, gen := qo.NewEnv(sch.Cat), workload.NewStarGen(sch, rng)
	queries := make([]*plan.Query, 10)
	want := make([]string, len(queries))
	for i := range queries {
		queries[i] = gen.Query()
		p, err := env.Opt.Plan(queries[i], optimizer.NoHint())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rowMultiset(t, env, queries[i], p)
	}
	train := queries[:4]
	check := func(name string, planFn func(*plan.Query) (*plan.Node, error)) {
		t.Helper()
		for i, q := range queries {
			p, err := planFn(q)
			if err != nil {
				t.Fatalf("%s, query %d: %v", name, i, err)
			}
			if got := rowMultiset(t, env, q, p); got != want[i] {
				t.Errorf("%s, query %d: rows differ from the expert plan's\n%s", name, i, p)
			}
		}
	}

	srng := mlmath.NewRNG(2)
	pe := planrep.NewPlanEncoder(env.Cat, planrep.FullFeatures())
	enc := tree.NewTreeRNNEncoder(pe.FeatDim(), 8, srng)
	vs := &qo.ValueSearch{Env: env, Enc: pe, Reg: tree.NewRegressor(enc, []int{16}, srng), Eps: 0.3, RNG: srng}
	check("value search", vs.Plan)
	check("exploring value search", func(q *plan.Query) (*plan.Node, error) { return vs.BuildPlan(q, true) })

	for _, a := range []struct {
		name  string
		agent *qo.ValueSearch
		first func(a *qo.ValueSearch) error // the configuration's first phase
	}{
		{"NEO", qo.NewNEO(env, mlmath.NewRNG(3)), func(a *qo.ValueSearch) error { return a.TrainOnExpert(train, qo.Work, 3) }},
		{"Balsa", qo.NewBalsa(env, mlmath.NewRNG(4)), func(a *qo.ValueSearch) error { return a.TrainOnSearch(train, 1, qo.EstCost, 3) }},
		{"RTOS", qo.NewRTOS(env, mlmath.NewRNG(5)), func(a *qo.ValueSearch) error { return a.TrainOnExpert(train, qo.EstCost, 3) }},
	} {
		check(a.name+" untrained", a.agent.Plan)
		if err := a.first(a.agent); err != nil {
			t.Fatal(err)
		}
		if err := a.agent.TrainOnSearch(train, 1, qo.Work, 2); err != nil {
			t.Fatal(err)
		}
		check(a.name+" trained", a.agent.Plan)
	}

	l := leon.New(env, 8, mlmath.NewRNG(6))
	if err := l.Train(train, 2); err != nil {
		t.Fatal(err)
	}
	check("LEON", l.Plan)
}

// rowMultiset executes p with every column of q named by (table position,
// column) and returns its rows, sorted, one per line.
func rowMultiset(t *testing.T, env *qo.Env, q *plan.Query, p *plan.Node) string {
	t.Helper()
	out := &plan.Output{Limit: plan.NoLimit}
	for pos, id := range q.Tables {
		for c := 0; c < env.Cat.Table(id).NumCols(); c++ {
			out.Cols = append(out.Cols, plan.AggCol{Table: pos, Col: c})
		}
	}
	res, err := env.Exec.Execute(p, exec.Options{Output: out})
	if err != nil {
		t.Fatalf("%v\n%s", err, p)
	}
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = fmt.Sprint(r)
	}
	slices.Sort(rows)
	return strings.Join(rows, "\n")
}
