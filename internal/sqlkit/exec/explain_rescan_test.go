package exec

import (
	"reflect"
	"testing"

	"ml4db/internal/sqlkit/plan"
)

// TestExplainRescanTelescoping pins the EXPLAIN ANALYZE accounting identity
// for plans that execute the same subtree more than once: a self-join whose
// two children are the SAME *plan.Node. Records are per visit, addressed by
// pre-order position, so the shared scan has two — one per side — and the
// parent subtracts each visit's subtree totals once for the exclusive values
// to telescope back to the executor's counters.
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
	if want := []plan.Actual{{Rows: 6}, {Rows: 4, Fetched: 4}, {Rows: 4, Fetched: 4}}; !reflect.DeepEqual(res.Actuals, want) {
		t.Fatalf("Actuals = %+v, want %+v (join, then one record per visit of the scan)", res.Actuals, want)
	}
	for _, ord := range []int{1, 2} {
		st := res.Explain.Stats(ord)
		if st == nil {
			t.Fatalf("no stats recorded for the scan's visit at %d", ord)
		}
		// Exclusive scan work equals its inclusive work (it has no children).
		if st.Loops != 1 || st.SubtreeWork != 4 || st.Work != 4 {
			t.Errorf("scan visit %d: %+v, want one loop of 4 work units", ord, *st)
		}
	}

	rootSt := res.Explain.Stats(0)
	if rootSt == nil {
		t.Fatal("no stats recorded for the join")
	}
	// 4×4 NL pairs; each visit's 4 scan units must be subtracted exactly once.
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
// shared subtree is itself a join, so a mis-addressed visit would corrupt
// interior operators, not just leaves.
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
	// Pre-order: root 0, inner 1 (sa 2, sb 3), inner again 4 (sa 5, sb 6).
	if len(res.Actuals) != 7 || !reflect.DeepEqual(res.Actuals[1:4], res.Actuals[4:7]) {
		t.Fatalf("Actuals = %+v, want 7 records with the inner join's two visits alike", res.Actuals)
	}
	if got, want := res.Explain.TotalWork(), res.Counters.Total(); got != want {
		t.Errorf("TotalWork() = %d, want %d (= Counters.Total())", got, want)
	}
	// Category-wise: summing exclusive counters over all visits must
	// reproduce the executor's counters exactly.
	var sum Counters
	for ord := range res.Actuals {
		st := res.Explain.Stats(ord)
		if st == nil || st.Loops != 1 {
			t.Fatalf("visit %d stats = %+v, want Loops=1", ord, st)
		}
		sum = addCounters(sum, st.Counters, 1)
	}
	if sum != res.Counters {
		t.Errorf("exclusive counters sum %+v != executor counters %+v", sum, res.Counters)
	}
	if a, b := res.Explain.Stats(1), res.Explain.Stats(4); a.Work != b.Work || a.Counters != b.Counters {
		t.Errorf("inner join's two visits differ: %+v vs %+v", *a, *b)
	}
}
