package exec

import (
	"errors"
	"math"
	"testing"

	"ml4db/internal/mlmath"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/datagen"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/plan"
)

func indexedSchema(t *testing.T) (*datagen.StarSchema, int) {
	t.Helper()
	rng := mlmath.NewRNG(1)
	sch, err := datagen.NewStarSchema(rng, 5000, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	fact := sch.Cat.Table(sch.FactID)
	col := sch.AttrCols[0]
	fact.AddIndex(catalog.BuildSecondaryIndex(fact, col))
	return sch, col
}

func TestIndexScanMatchesSeqScan(t *testing.T) {
	sch, col := indexedSchema(t)
	e := New(sch.Cat)
	filters := []expr.Pred{
		{Col: col, Op: expr.BETWEEN, Lo: 400, Hi: 500},
		{Col: sch.AttrCols[2], Op: expr.LE, Lo: 300},
	}
	seq := plan.NewScan(0, sch.FactID, filters)
	idx := plan.NewIndexScan(0, sch.FactID, col, filters)
	rs, err := e.Execute(seq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ri, err := e.Execute(idx, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != len(ri.Rows) {
		t.Fatalf("index scan %d rows, seq scan %d", len(ri.Rows), len(rs.Rows))
	}
	if ri.Work >= rs.Work {
		t.Errorf("index scan work %d not below seq scan %d on selective predicate", ri.Work, rs.Work)
	}
	if ri.Counters.IndexFetch == 0 || ri.Counters.IndexProbe == 0 {
		t.Errorf("index counters not charged: %+v", ri.Counters)
	}
	if a := ri.Actuals[0]; a.Fetched != ri.Counters.IndexFetch || a.Rows != int64(len(ri.Rows)) || a.Fetched < a.Rows {
		t.Errorf("Actuals = %+v with %d fetches charged and %d rows out", a, ri.Counters.IndexFetch, len(ri.Rows))
	}

	// The ends of the int64 domain: nothing lies beyond either, everything
	// lies within both. An empty interval costs the probe and nothing else.
	fact := sch.Cat.Table(sch.FactID)
	for _, tc := range []struct {
		pred expr.Pred
		want int
	}{
		{expr.Pred{Col: col, Op: expr.GT, Lo: math.MaxInt64}, 0},
		{expr.Pred{Col: col, Op: expr.LT, Lo: math.MinInt64}, 0},
		{expr.Pred{Col: col, Op: expr.LE, Lo: math.MaxInt64}, fact.NumRows()},
		{expr.Pred{Col: col, Op: expr.GE, Lo: math.MinInt64}, fact.NumRows()},
	} {
		rs, err := e.Execute(plan.NewScan(0, sch.FactID, []expr.Pred{tc.pred}), Options{})
		if err != nil {
			t.Fatal(err)
		}
		ri, err := e.Execute(plan.NewIndexScan(0, sch.FactID, col, []expr.Pred{tc.pred}), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Rows) != tc.want || len(ri.Rows) != tc.want {
			t.Errorf("%s: seq scan %d rows, index scan %d, want %d", tc.pred, len(rs.Rows), len(ri.Rows), tc.want)
		}
		if want := (Counters{IndexProbe: ri.Counters.IndexProbe}); tc.want == 0 && ri.Counters != want {
			t.Errorf("%s: empty interval charged more than its probe: %+v", tc.pred, ri.Counters)
		}
	}
}

// TestIndexScanBudgetAbortKeepsFetched: an in-memory index scan aborted by
// either budget keeps the fetches it made on its record, as the disk path
// does — every IndexFetch charged except one whose own charge aborted.
func TestIndexScanBudgetAbortKeepsFetched(t *testing.T) {
	sch, col := indexedSchema(t)
	idx := plan.NewIndexScan(0, sch.FactID, col, []expr.Pred{{Col: col, Op: expr.BETWEEN, Lo: 0, Hi: 1000}})
	for _, tc := range []struct {
		budget  Budget
		aborted int64 // fetch charges that aborted the scan
	}{
		{Budget{MaxWork: 100}, 1},
		{Budget{MaxRows: 10}, 0},
	} {
		res, err := New(sch.Cat).Execute(idx, Options{Budget: &tc.budget})
		if !errors.Is(err, ErrWorkBudgetExceeded) {
			t.Fatalf("%+v: got %v, want a budget abort", tc.budget, err)
		}
		if got, want := res.Actuals[0].Fetched, res.Counters.IndexFetch-tc.aborted; got == 0 || got != want {
			t.Errorf("%+v: aborted scan Fetched = %d, want %d (%d IndexFetch charges)", tc.budget, got, want, res.Counters.IndexFetch)
		}
	}
}

// TestIndexScanReadsBeyondStaleStatistics: the index, not the last ANALYZE,
// says which values exist. A row appended above the recorded maximum (and
// indexed) is found by an open-ended interval.
func TestIndexScanReadsBeyondStaleStatistics(t *testing.T) {
	sch, col := indexedSchema(t)
	fact := sch.Cat.Table(sch.FactID)
	beyond := fact.Columns[col].Stats.Max + 1000
	row := make([]int64, fact.NumCols())
	row[col] = beyond
	if err := fact.AppendRow(row); err != nil {
		t.Fatal(err)
	}
	fact.AddIndex(catalog.BuildSecondaryIndex(fact, col)) // statistics stay as they were
	for _, pred := range []expr.Pred{
		{Col: col, Op: expr.GE, Lo: beyond},
		{Col: col, Op: expr.GT, Lo: beyond - 1},
		{Col: col, Op: expr.EQ, Lo: beyond},
	} {
		res, err := New(sch.Cat).Execute(plan.NewIndexScan(0, sch.FactID, col, []expr.Pred{pred}), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Errorf("%s: index scan returned %d rows, want the appended one", pred, len(res.Rows))
		}
	}
}

func TestIndexScanRequiresIndexAndInterval(t *testing.T) {
	sch, col := indexedSchema(t)
	e := New(sch.Cat)
	// Missing index.
	bad := plan.NewIndexScan(0, sch.FactID, sch.AttrCols[1], []expr.Pred{{Col: sch.AttrCols[1], Op: expr.LE, Lo: 10}})
	if _, err := e.Execute(bad, Options{}); err == nil {
		t.Error("expected error for missing index")
	}
	// No interval predicate on the indexed column.
	noPred := plan.NewIndexScan(0, sch.FactID, col, []expr.Pred{{Col: sch.AttrCols[2], Op: expr.LE, Lo: 10}})
	if _, err := e.Execute(noPred, Options{}); err == nil {
		t.Error("expected error for missing interval predicate")
	}
}

func TestIndexScanIntersectsMultiplePredicates(t *testing.T) {
	sch, col := indexedSchema(t)
	e := New(sch.Cat)
	filters := []expr.Pred{
		{Col: col, Op: expr.GE, Lo: 400},
		{Col: col, Op: expr.LE, Lo: 500},
	}
	seq := plan.NewScan(0, sch.FactID, filters)
	idx := plan.NewIndexScan(0, sch.FactID, col, filters)
	rs, err := e.Execute(seq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ri, err := e.Execute(idx, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != len(ri.Rows) {
		t.Fatalf("row mismatch: %d vs %d", len(ri.Rows), len(rs.Rows))
	}
}

func TestCountersVecLength(t *testing.T) {
	var c Counters
	if len(c.Vec()) != 11 {
		t.Errorf("counters vec length %d, want 11", len(c.Vec()))
	}
	c.IndexProbe, c.IndexFetch = 3, 4
	if c.Total() != 7 {
		t.Errorf("Total = %d, want 7", c.Total())
	}
}
