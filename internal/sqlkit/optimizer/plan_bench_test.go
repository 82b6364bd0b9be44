package optimizer

import (
	"fmt"
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

// BenchmarkPlanStar is the micro tier of Optimizer.Plan: ns/op and allocs/op
// of one full DP over a 3-, 5- and 7-table star join.
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
		})
	}
}

// TestPlanAllocContract bounds the allocations of one planning pass. The
// bounds sit about 10 % above the measured counts — 24 / 130 / 644 since the
// DP costs a candidate before building its node and keeps no per-entry
// layout; 121 / 914 / 5 400 before — so a change that makes the DP allocate
// per candidate again fails here rather than as an adhoc_plan regression in
// bench/.
func TestPlanAllocContract(t *testing.T) {
	for _, tc := range []struct{ tables, maxAllocs int }{{3, 27}, {5, 145}, {7, 710}} {
		o, q := benchStar(t, tc.tables)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := o.Plan(q, NoHint()); err != nil {
				t.Fatal(err)
			}
		})
		if int(allocs) > tc.maxAllocs {
			t.Errorf("Plan over %d tables: %.0f allocs, contract ≤ %d", tc.tables, allocs, tc.maxAllocs)
		}
	}
}
