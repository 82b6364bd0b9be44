package exec

import (
	"testing"

	"ml4db/internal/sqlkit/plan"
)

// TestExplainRescanTelescoping pins the EXPLAIN ANALYZE accounting identity
// for plans that execute the same subtree more than once: a self-join whose
// two children are the SAME *plan.Node. The shared scan accumulates one
// OpStats entry across both executions (Loops=2), and the parent must
// subtract that entry's subtree totals once — not once per child reference —
// for the exclusive values to telescope back to the executor's counters.
func TestExplainRescanTelescoping(t *testing.T) {
	cat := tinyCatalog(t)
	e := New(cat)
	scan := plan.NewScan(0, 0, nil)
	// a ⋈ a on id: ids 1 and 2 match themselves, id 3 appears twice → 4
	// pairs; 6 output rows total.
	root := plan.NewJoin(plan.OpNLJoin, scan, scan, on(0, 0, 0, 0))

	res, err := e.Execute(root, Options{Analyze: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("self-join rows = %d, want 6", len(res.Rows))
	}

	st := res.Explain.Stats(scan)
	if st == nil {
		t.Fatal("no stats recorded for the shared scan")
	}
	if st.Loops != 2 {
		t.Errorf("shared scan Loops = %d, want 2", st.Loops)
	}
	if st.Rows != 8 {
		t.Errorf("shared scan Rows = %d, want 8 (4 per loop)", st.Rows)
	}
	if st.SubtreeWork != 8 {
		t.Errorf("shared scan SubtreeWork = %d, want 8 (both executions)", st.SubtreeWork)
	}
	// Exclusive scan work equals its inclusive work (it has no children).
	if st.Work != 8 {
		t.Errorf("shared scan exclusive Work = %d, want 8", st.Work)
	}

	rootSt := res.Explain.Stats(root)
	if rootSt == nil {
		t.Fatal("no stats recorded for the join")
	}
	// 4×4 NL pairs; the scan's 8 units must be subtracted exactly once even
	// though the scan appears as both children.
	if rootSt.Work != 16 {
		t.Errorf("join exclusive Work = %d, want 16 (16 NL pairs)", rootSt.Work)
	}
	if rootSt.Counters.NLPairs != 16 {
		t.Errorf("join exclusive NLPairs = %d, want 16", rootSt.Counters.NLPairs)
	}
	if rootSt.Counters.ScanTuples != 0 {
		t.Errorf("join exclusive ScanTuples = %d, want 0 (all attributed to the scan)", rootSt.Counters.ScanTuples)
	}

	// The telescoping identity: exclusive per-operator work sums to the
	// executor's total, which equals the counter total.
	if got, want := res.Explain.TotalWork(), res.Work; got != want {
		t.Errorf("TotalWork() = %d, want %d (= Result.Work)", got, want)
	}
	if got, want := res.Work, res.Counters.Total(); got != want {
		t.Errorf("Result.Work = %d, want %d (= Counters.Total())", got, want)
	}
}

// TestExplainRescanDeepTree checks the identity on a deeper plan where the
// shared subtree is itself a join, so the double-subtraction bug (if
// reintroduced) would corrupt interior operators, not just leaves.
func TestExplainRescanDeepTree(t *testing.T) {
	cat := tinyCatalog(t)
	e := New(cat)
	sa := plan.NewScan(0, 0, nil)
	sb := plan.NewScan(1, 1, nil)
	inner := plan.NewJoin(plan.OpHashJoin, sa, sb, on(0, 0, 1, 0))
	root := plan.NewJoin(plan.OpNLJoin, inner, inner, on(0, 0, 0, 0))

	res, err := e.Execute(root, Options{Analyze: true})
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Explain.Stats(inner); st == nil || st.Loops != 2 {
		t.Fatalf("inner join stats = %+v, want Loops=2", st)
	}
	if got, want := res.Explain.TotalWork(), res.Counters.Total(); got != want {
		t.Errorf("TotalWork() = %d, want %d (= Counters.Total())", got, want)
	}
	// Category-wise: summing exclusive counters over all operators must
	// reproduce the executor's counters exactly.
	var sum Counters
	for _, n := range []*plan.Node{sa, sb, inner, root} {
		if st := res.Explain.Stats(n); st != nil {
			sum = addCounters(sum, st.Counters)
		}
	}
	if sum != res.Counters {
		t.Errorf("exclusive counters sum %+v != executor counters %+v", sum, res.Counters)
	}
}
