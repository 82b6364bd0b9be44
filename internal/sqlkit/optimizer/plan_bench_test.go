package optimizer

import (
	"fmt"
	"reflect"
	"testing"

	"ml4db/internal/mlmath"
	"ml4db/internal/sqlkit/datagen"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/plan"
)

// benchStar returns an optimizer over a six-dimension star schema and the
// unhinted star-join query over tables tables (the fact table plus
// tables−1 dimensions) with one fact filter — the shape bench/'s adhoc_plan
// workload plans on every operation.
func benchStar(tb testing.TB, tables int) (*Optimizer, *plan.Query) {
	tb.Helper()
	sch, err := datagen.NewStarSchema(mlmath.NewRNG(5), 2000, 100, 6)
	if err != nil {
		tb.Fatal(err)
	}
	q := starQuery(sch, tables-1)
	q.AddFilter(0, expr.Pred{Col: sch.AttrCols[0], Op: expr.BETWEEN, Lo: 400, Hi: 600})
	return New(sch.Cat), q
}

// recorder answers like the histogram estimator and records every question it
// is asked, in order.
type recorder struct {
	HistEstimator
	scans []int
	conds []expr.JoinCond
}

func (r *recorder) ScanRows(q *plan.Query, pos int) float64 {
	r.scans = append(r.scans, pos)
	return r.HistEstimator.ScanRows(q, pos)
}

func (r *recorder) JoinSelectivity(q *plan.Query, c expr.JoinCond) float64 {
	r.conds = append(r.conds, c)
	return r.HistEstimator.JoinSelectivity(q, c)
}

func (r *recorder) calls() int { return len(r.scans) + len(r.conds) }

// BenchmarkPlanStar is the micro tier of Optimizer.Plan: ns/op, allocs/op and
// estimator calls per op of one full DP over a 3-, 5- and 7-table star join.
func BenchmarkPlanStar(b *testing.B) {
	for _, tables := range []int{3, 5, 7} {
		b.Run(fmt.Sprintf("tables=%d", tables), func(b *testing.B) {
			o, q := benchStar(b, tables)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := o.Plan(q, NoHint()); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			// Calls per Plan do not vary, so one more pass outside the timer
			// counts them without the recorder's appends in allocs/op.
			rec := &recorder{HistEstimator: HistEstimator{Cat: o.Cat}}
			o.Est = rec
			if _, err := o.Plan(q, NoHint()); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(rec.calls()), "est_calls/op")
		})
	}
}

// TestPlanAllocContract pins the allocations of one planning pass: Plan 10 /
// 16 / 22 over a 3-, 5- and 7-table star, and PlanWith (the search alone, over
// estimates already held) one fewer — the same in a plain build and under
// -race. Plan allocates the table of estimates; PlanWith the search table,
// one scan per table and, per join, its node and children, plus one array
// all the joins' conditions are cut from (the leaf list is a stack array).
// History: 12 / 20 / 28 (held to 14 / 22 / 31) while the leaf list was on the
// heap and each join node's conditions were a slice of their own; 25 / 131 /
// 645 while the search built a node per improving candidate and a condition
// slice per candidate, and 121 / 914 / 5 400 before the DP costed a candidate
// ahead of building it. A change that makes the search allocate per candidate
// again fails here rather than as an adhoc_plan regression in bench/.
func TestPlanAllocContract(t *testing.T) {
	for _, tc := range []struct{ tables, plan int }{{3, 10}, {5, 16}, {7, 22}} {
		o, q := benchStar(t, tc.tables)
		est, _ := Estimate(o.Est, q, nil)
		for _, step := range []struct {
			name   string
			allocs int
			run    func() (*plan.Node, error)
		}{
			{"Plan", tc.plan, func() (*plan.Node, error) { return o.Plan(q, NoHint()) }},
			{"PlanWith", tc.plan - 1, func() (*plan.Node, error) { return o.PlanWith(q, NoHint(), est) }},
		} {
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := step.run(); err != nil {
					t.Fatal(err)
				}
			})
			if int(allocs) > step.allocs {
				t.Errorf("%s over %d tables: %.0f allocs, contract ≤ %d", step.name, tc.tables, allocs, step.allocs)
			}
		}
	}
}

// TestPlanAsksEachEstimateOnce: whatever the join graph and the hint set, one
// Plan asks the estimator for every table position once and then for every
// join condition once, as declared and in declaration order — tables + join
// conditions calls, none from inside the join-order search — and CheapestHint
// asks the same questions once for all its hint sets together.
func TestPlanAsksEachEstimateOnce(t *testing.T) {
	chain, err := datagen.NewChainSchema(mlmath.NewRNG(7), []int{200, 200, 200})
	if err != nil {
		t.Fatal(err)
	}
	cyclic := chainQuery(chain, 3)
	cyclic.AddJoin(expr.JoinCond{LeftTable: 2, LeftCol: 2, RightTable: 0, RightCol: 2}) // declared "backwards"
	double := chainQuery(chain, 3)
	double.AddJoin(expr.JoinCond{LeftTable: 1, LeftCol: 2, RightTable: 0, RightCol: 2})
	type graph struct {
		name string
		o    *Optimizer
		q    *plan.Query
	}
	graphs := []graph{{"cyclic", New(chain.Cat), cyclic}, {"double-edge", New(chain.Cat), double}}
	for _, tables := range []int{3, 5, 7} {
		o, q := benchStar(t, tables)
		graphs = append(graphs, graph{fmt.Sprintf("star%d", tables), o, q})
	}
	for _, g := range graphs {
		rec := &recorder{HistEstimator: HistEstimator{Cat: g.o.Cat}}
		g.o.Est = rec
		check := func(what string) {
			t.Helper()
			positions := make([]int, len(g.q.Tables))
			for pos := range positions {
				positions[pos] = pos
			}
			if !reflect.DeepEqual(rec.scans, positions) || !reflect.DeepEqual(rec.conds, g.q.Joins) {
				t.Fatalf("%s %s: asked about positions %v and conditions %v, want %v and %v: each once, in declaration order",
					g.name, what, rec.scans, rec.conds, positions, g.q.Joins)
			}
			rec.scans, rec.conds = nil, nil
		}
		for _, h := range StandardHintSets() {
			if _, err := g.o.Plan(g.q, h); err != nil {
				t.Fatalf("%s %s: %v", g.name, h.Name, err)
			}
			check("Plan under " + h.Name)
		}
		if _, _, err := g.o.CheapestHint(g.q, StandardHintSets()); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		check("CheapestHint")
	}
}
