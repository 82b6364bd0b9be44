package autopilot

import (
	"testing"
	"time"

	"ml4db/internal/mlmath"
	"ml4db/internal/querystore"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/datagen"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/optimizer"
	"ml4db/internal/sqlkit/plan"
)

// fakeHost is an engine stand-in for white-box miner tests.
type fakeHost struct {
	cat         *catalog.Catalog
	designBumps int
	rewriters   []plan.QueryRewriter
}

func (h *fakeHost) Catalog() *catalog.Catalog { return h.cat }
func (h *fakeHost) Quiesce(fn func())         { fn() }
func (h *fakeHost) NotifyDesignChange()       { h.designBumps++ }
func (h *fakeHost) SetRewriters(rs []plan.QueryRewriter) {
	h.rewriters = rs
	h.designBumps++
}

func minerFixture(t *testing.T) (*catalog.Catalog, *querystore.Store, *Autopilot, *mlmath.ManualClock) {
	t.Helper()
	rng := mlmath.NewRNG(11)
	tbl, err := datagen.GenTable(rng, "ev", 500, []datagen.ColSpec{
		{Name: "id", Kind: datagen.Sequential},
		{Name: "attr", Kind: datagen.Uniform, Domain: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.NewCatalog()
	cat.MustAdd(tbl)
	cat.AnalyzeAll(32, 512)
	mc := &mlmath.ManualClock{T: time.Unix(0, 0)}
	store := querystore.New(querystore.Options{Clock: mc, Catalog: cat})
	ap, err := New(Options{Clock: mc, Store: store, Host: &fakeHost{cat: cat}})
	if err != nil {
		t.Fatal(err)
	}
	return cat, store, ap, mc
}

// record executes nothing: it plans q and feeds the store a synthetic
// observation with the given work (and all-zero actuals, so the plan is
// harvested and q kept as the template), which is all the miner consumes.
func record(t *testing.T, cat *catalog.Catalog, store *querystore.Store, q *plan.Query, shape string, work int64) {
	t.Helper()
	p, err := optimizer.New(cat).Plan(q, optimizer.NoHint())
	if err != nil {
		t.Fatal(err)
	}
	store.Record(querystore.Observation{Shape: shape, Query: q, Work: work, Rows: 1, Plan: p, Actuals: make([]plan.Actual, p.NumNodes())})
}

// TestMinerRanksByWindowedDelta checks that mining ranks statements by work
// growth since the previous pass, not by lifetime totals: a statement that
// was hot once but went quiet must fall out of the mined workload even
// though its lifetime counters dominate.
func TestMinerRanksByWindowedDelta(t *testing.T) {
	cat, store, ap, _ := minerFixture(t)
	qa := plan.NewQuery(0)
	qa.AddFilter(0, expr.Pred{Col: 1, Op: expr.BETWEEN, Lo: 100, Hi: 199})
	qb := plan.NewQuery(0)
	qb.AddFilter(0, expr.Pred{Col: 1, Op: expr.BETWEEN, Lo: 700, Hi: 799})

	for i := 0; i < 10; i++ {
		record(t, cat, store, qa, "A", 1000)
	}
	record(t, cat, store, qb, "B", 50)

	mined := ap.mineWorkload()
	if len(mined) != 2 || mined[0].Shape != "A" {
		t.Fatalf("first pass mined = %+v, want A first", mined)
	}
	if mined[0].DeltaWork != 10000 || mined[0].DeltaCalls != 10 {
		t.Errorf("A deltas = %d/%d, want lifetime totals on first pass", mined[0].DeltaWork, mined[0].DeltaCalls)
	}
	if mined[0].Query == nil || len(mined[0].Query.Tables) != 1 {
		t.Fatalf("A template = %+v, want the single-table query", mined[0].Query)
	}

	// A goes quiet, B keeps running: the second pass must mine only B.
	for i := 0; i < 3; i++ {
		record(t, cat, store, qb, "B", 50)
	}
	mined = ap.mineWorkload()
	if len(mined) != 1 || mined[0].Shape != "B" {
		t.Fatalf("second pass mined = %+v, want only B (A had no fresh traffic)", mined)
	}
	if mined[0].DeltaWork != 150 || mined[0].DeltaCalls != 3 {
		t.Errorf("B deltas = %d/%d, want growth since previous pass only", mined[0].DeltaWork, mined[0].DeltaCalls)
	}
}

// TestMinerSkipsNonTunableTables checks that statements over virtual system
// views never enter the mined workload.
func TestMinerSkipsNonTunableTables(t *testing.T) {
	cat, store, ap, _ := minerFixture(t)
	if err := querystore.RegisterViews(cat, store); err != nil {
		t.Fatal(err)
	}
	sysID, ok := cat.ByName(querystore.ViewStatements)
	if !ok {
		t.Fatal("sys_statements not registered")
	}
	qs := plan.NewQuery(sysID)
	record(t, cat, store, qs, "SYS", 500)

	if mined := ap.mineWorkload(); len(mined) != 0 {
		t.Fatalf("mined = %+v, want none (virtual tables are not tunable)", mined)
	}
	if ap.tunable(qs) {
		t.Error("tunable(sys view query) = true, want false")
	}
}
