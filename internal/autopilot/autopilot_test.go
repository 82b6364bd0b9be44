package autopilot_test

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"ml4db/internal/autopilot"
	"ml4db/internal/engine"
	"ml4db/internal/mlmath"
	"ml4db/internal/querystore"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/datagen"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/plan"
)

// rig is one wired tuning stack: catalog, store, engine, autopilot, all on
// one manual clock.
type rig struct {
	cat   *catalog.Catalog
	store *querystore.Store
	eng   *engine.Engine
	ap    *autopilot.Autopilot
	mc    *mlmath.ManualClock
	sess  *engine.Session
}

func newRig(t *testing.T, cat *catalog.Catalog, opts autopilot.Options) *rig {
	t.Helper()
	mc := &mlmath.ManualClock{T: time.Unix(0, 0)}
	store := querystore.New(querystore.Options{Clock: mc, Catalog: cat})
	eng := engine.New(cat, engine.Options{Store: store})
	opts.Clock = mc
	opts.Store = store
	opts.Host = eng
	ap, err := autopilot.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := autopilot.RegisterTuningView(cat, ap); err != nil {
		t.Fatal(err)
	}
	return &rig{cat: cat, store: store, eng: eng, ap: ap, mc: mc, sess: eng.Session()}
}

// runN runs q n times, advancing the clock by step before each call, and
// returns total executed work and the last result's row count.
func (r *rig) runN(t *testing.T, q *plan.Query, n int, step time.Duration) (int64, int) {
	t.Helper()
	var work int64
	rows := 0
	for i := 0; i < n; i++ {
		r.mc.Advance(step)
		res, err := r.sess.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		work += res.Work
		rows = len(res.Rows)
	}
	return work, rows
}

func stages(evs []autopilot.TuningEvent) []autopilot.Stage {
	out := make([]autopilot.Stage, len(evs))
	for i, e := range evs {
		out[i] = e.Stage
	}
	return out
}

func skewedTable(t *testing.T, seed uint64, rows int) *catalog.Catalog {
	t.Helper()
	tbl, err := datagen.GenTable(mlmath.NewRNG(seed), "events", rows, []datagen.ColSpec{
		{Name: "id", Kind: datagen.Sequential},
		{Name: "attr", Kind: datagen.Uniform, Domain: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.NewCatalog()
	cat.MustAdd(tbl)
	cat.AnalyzeAll(32, 512)
	return cat
}

// TestAdoptsBeneficialIndexEndToEnd drives a selective scan-heavy workload
// through a real engine and checks the full loop: the autopilot mines it,
// adopts a secondary index, the engine's next runs get measurably cheaper
// without changing results, and the shadow trial confirms the adoption.
func TestAdoptsBeneficialIndexEndToEnd(t *testing.T) {
	r := newRig(t, skewedTable(t, 3, 4000), autopilot.Options{
		Interval: time.Second, MinWinFrac: 0.01, BuildCostWeight: -1, VerifyWindows: 2,
	})
	q := plan.NewQuery(0)
	q.AddFilter(0, expr.Pred{Col: 1, Op: expr.BETWEEN, Lo: 500, Hi: 509})

	preWork, preRows := r.runN(t, q, 10, 50*time.Millisecond)

	evs, err := r.ap.Tick()
	if err != nil {
		t.Fatal(err)
	}
	var adopted *autopilot.TuningEvent
	for i := range evs {
		if evs[i].Stage == autopilot.StageAdopted {
			adopted = &evs[i]
		}
	}
	if adopted == nil {
		t.Fatalf("no adoption after first mining pass; stages = %v", stages(evs))
	}
	if adopted.Kind != autopilot.KindIndex || adopted.TableID != 0 || adopted.Col != 1 {
		t.Fatalf("adopted %s %s, want the index on events.attr", adopted.Kind, adopted.Target)
	}
	if adopted.NetWin <= 0 || adopted.EstWith >= adopted.EstBase {
		t.Errorf("adoption event costs inconsistent: %+v", adopted)
	}
	if r.cat.Table(0).Index(1) == nil {
		t.Fatal("adoption emitted but index not built")
	}

	postWork, postRows := r.runN(t, q, 10, 300*time.Millisecond)
	if postRows != preRows {
		t.Fatalf("post-adoption rows = %d, pre = %d (results must not change)", postRows, preRows)
	}
	if postWork >= preWork {
		t.Errorf("post-adoption work = %d, pre = %d; the index must reduce observed work", postWork, preWork)
	}

	evs, err = r.ap.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Stage != autopilot.StageKept {
		t.Fatalf("trial verdict events = %v, want exactly StageKept", stages(evs))
	}
	if evs[0].ObservedWPC >= evs[0].BaselineWPC || evs[0].TrialCalls != 10 {
		t.Errorf("trial numbers: observed %.1f baseline %.1f calls %d", evs[0].ObservedWPC, evs[0].BaselineWPC, evs[0].TrialCalls)
	}
	if got := r.ap.Adoptions(); len(got) != 1 || got[0].Kind != autopilot.KindIndex {
		t.Fatalf("adoptions = %+v, want the kept index", got)
	}
}

// staleJoinCatalog builds two tables whose join-key statistics are stale:
// analyzed while the keys were near-unique, then overwritten to five
// distinct values — so the optimizer's join-size estimate is ~rRows/5× under.
func staleJoinCatalog(t *testing.T, seed uint64, lRows, rRows int) *catalog.Catalog {
	t.Helper()
	rng := mlmath.NewRNG(seed)
	cat := catalog.NewCatalog()
	for _, spec := range []struct {
		name string
		rows int
	}{{"l", lRows}, {"r", rRows}} {
		tbl, err := datagen.GenTable(rng, spec.name, spec.rows, []datagen.ColSpec{
			{Name: "id", Kind: datagen.Sequential},
			{Name: "k", Kind: datagen.Uniform, Domain: 100000},
			{Name: "attr", Kind: datagen.Uniform, Domain: 1000},
		})
		if err != nil {
			t.Fatal(err)
		}
		cat.MustAdd(tbl)
	}
	cat.AnalyzeAll(32, 512)
	for id := 0; id < 2; id++ {
		data := cat.Table(id).Data[1]
		for i := range data {
			data[i] = int64(i % 5)
		}
	}
	return cat
}

// TestShadowVerificationDropsHarmfulView plants a materialized-view
// candidate that looks great on stale statistics (the estimator puts the
// join at ~400 rows; it is actually 64000) and checks the canary: the
// autopilot adopts it, observes the regression over the next windows, drops
// it again, and queries keep returning correct results throughout.
func TestShadowVerificationDropsHarmfulView(t *testing.T) {
	r := newRig(t, staleJoinCatalog(t, 5, 400, 800), autopilot.Options{
		Interval: time.Second, MinWinFrac: 0.01, BuildCostWeight: -1, VerifyWindows: 2,
	})
	q := plan.NewQuery(0, 1)
	q.AddFilter(0, expr.Pred{Col: 2, Op: expr.BETWEEN, Lo: 500, Hi: 509})
	q.AddJoin(expr.JoinCond{LeftTable: 0, LeftCol: 1, RightTable: 1, RightCol: 1})

	preWork, preRows := r.runN(t, q, 10, 50*time.Millisecond)

	evs, err := r.ap.Tick()
	if err != nil {
		t.Fatal(err)
	}
	var adopted *autopilot.TuningEvent
	for i := range evs {
		if evs[i].Stage == autopilot.StageAdopted {
			adopted = &evs[i]
		}
	}
	if adopted == nil || adopted.Kind != autopilot.KindView {
		t.Fatalf("want a view adoption (stale stats make it look like the best win); events = %v", stages(evs))
	}
	viewID := adopted.TableID
	if got := r.cat.Table(viewID).NumRows(); got != 64000 {
		t.Fatalf("materialized view rows = %d, want 64000 (5 keys × 400 × 160)", got)
	}

	// Through the view the query must still be correct — just slower.
	duringWork, duringRows := r.runN(t, q, 10, 300*time.Millisecond)
	if duringRows != preRows {
		t.Fatalf("rows through view = %d, pre = %d", duringRows, preRows)
	}
	if duringWork <= preWork {
		t.Fatalf("work through view = %d, pre = %d; scenario must actually regress", duringWork, preWork)
	}

	evs, err = r.ap.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Stage != autopilot.StageDropped {
		t.Fatalf("trial verdict events = %v, want exactly StageDropped", stages(evs))
	}
	if evs[0].ObservedWPC <= evs[0].BaselineWPC {
		t.Errorf("dropped but observed %.1f <= baseline %.1f", evs[0].ObservedWPC, evs[0].BaselineWPC)
	}
	if got := r.ap.Adoptions(); len(got) != 0 {
		t.Fatalf("adoptions after drop = %+v, want none", got)
	}
	if got := r.cat.Table(viewID).NumRows(); got != 0 {
		t.Errorf("dropped view still holds %d rows", got)
	}
	if r.ap.MemoryUsed() != 0 {
		t.Errorf("memory used after drop = %d, want 0", r.ap.MemoryUsed())
	}

	postWork, postRows := r.runN(t, q, 5, 50*time.Millisecond)
	if postRows != preRows {
		t.Fatalf("post-drop rows = %d, pre = %d", postRows, preRows)
	}
	if postWork/5 > preWork/10*2 {
		t.Errorf("post-drop per-call work %d, pre %d: revert must restore the original plan", postWork/5, preWork/10)
	}
}

// documentedSysTuningQuery returns the example statement of
// docs/AUTOPILOT.md's "Reading the ledger" section, verbatim.
func documentedSysTuningQuery(t *testing.T) string {
	t.Helper()
	doc, err := os.ReadFile("../../docs/AUTOPILOT.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, found := strings.Cut(string(doc), "```sql\n")
	stmt, _, closed := strings.Cut(rest, "\n```")
	if !found || !closed || !strings.Contains(stmt, "sys_tuning") {
		t.Fatalf("docs/AUTOPILOT.md has no ```sql example over sys_tuning (found %q)", stmt)
	}
	return stmt
}

// TestSysTuningReadableThroughSQL reads the decision ledger back through the
// normal planner and executor, with the statement the documentation shows.
func TestSysTuningReadableThroughSQL(t *testing.T) {
	r := newRig(t, skewedTable(t, 3, 2000), autopilot.Options{
		Interval: time.Second, MinWinFrac: 0.01, BuildCostWeight: -1, VerifyWindows: 1,
	})
	q := plan.NewQuery(0)
	q.AddFilter(0, expr.Pred{Col: 1, Op: expr.BETWEEN, Lo: 100, Hi: 119})
	r.runN(t, q, 6, 100*time.Millisecond)
	if _, err := r.ap.Tick(); err != nil {
		t.Fatal(err)
	}
	r.runN(t, q, 6, 400*time.Millisecond)
	if _, err := r.ap.Tick(); err != nil {
		t.Fatal(err)
	}

	rr, err := r.sess.Query(documentedSysTuningQuery(t))
	if err != nil {
		t.Fatalf("the documented sys_tuning example does not run: %v", err)
	}
	evs := r.ap.Events()
	if len(rr.Rows) != len(evs) {
		t.Fatalf("sys_tuning rows = %d, ledger = %d", len(rr.Rows), len(evs))
	}
	for i, row := range rr.Rows {
		e := evs[i]
		want := []int64{e.Seq, int64(e.Stage), int64(e.Kind), int64(e.TableID), int64(e.Col), int64(math.Round(e.NetWin))}
		if !slices.Equal(row, want) {
			t.Fatalf("row %d = %v, want %v (event %+v)", i, row, want, e)
		}
	}
	// The loop must have finished a full adopt→keep cycle in this ledger.
	sawKept := false
	for _, e := range evs {
		if e.Stage == autopilot.StageKept {
			sawKept = true
		}
	}
	if !sawKept {
		t.Fatalf("ledger %v never reached StageKept", stages(evs))
	}
}

// TestReplayByteIdentical runs the full beneficial-index scenario twice from
// scratch under ManualClocks and requires the exported event ledgers to be
// byte-identical — the determinism contract every decision obeys.
func TestReplayByteIdentical(t *testing.T) {
	run := func() []byte {
		r := newRig(t, skewedTable(t, 3, 2000), autopilot.Options{
			Interval: time.Second, MinWinFrac: 0.01, BuildCostWeight: -1, VerifyWindows: 2,
		})
		q := plan.NewQuery(0)
		q.AddFilter(0, expr.Pred{Col: 1, Op: expr.BETWEEN, Lo: 500, Hi: 509})
		r.runN(t, q, 8, 100*time.Millisecond)
		if _, err := r.ap.Tick(); err != nil {
			t.Fatal(err)
		}
		r.runN(t, q, 8, 300*time.Millisecond)
		if _, err := r.ap.Tick(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := r.ap.WriteEventsJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("replay produced no events")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("replays differ:\n%s\n---\n%s", a, b)
	}
}

// TestTuningLedgerGolden runs both end-to-end scenarios at full size and pins
// their concatenated event ledgers byte for byte against
// testdata/tuning.golden.jsonl (regenerate with UPDATE_GOLDEN=1 only for an
// intended change to a decision or the ledger schema):
//   - index: a selective statement over 20 000 rows whose index is adopted
//     and kept, next to an unselective one whose candidate idx(t0.c2) must be
//     rejected at the what-if gate, with build cost weighted 0.5;
//   - view: stale join-key statistics over 1 000 × 2 000 rows bait a view
//     that the shadow trial drops.
func TestTuningLedgerGolden(t *testing.T) {
	opts := func(buildCostWeight float64) autopilot.Options {
		return autopilot.Options{
			Interval: time.Second, MinWinFrac: 0.02, BuildCostWeight: buildCostWeight, VerifyWindows: 2,
		}
	}
	ledger := func(r *rig) []byte {
		var buf bytes.Buffer
		if err := r.ap.WriteEventsJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	tbl, err := datagen.GenTable(mlmath.NewRNG(42), "events", 20000, []datagen.ColSpec{
		{Name: "id", Kind: datagen.Sequential},
		{Name: "attr", Kind: datagen.Uniform, Domain: 1000},
		{Name: "wide", Kind: datagen.Uniform, Domain: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.NewCatalog()
	cat.MustAdd(tbl)
	cat.AnalyzeAll(32, 512)
	r := newRig(t, cat, opts(0.5))
	hot := plan.NewQuery(0)
	hot.AddFilter(0, expr.Pred{Col: 1, Op: expr.BETWEEN, Lo: 500, Hi: 509})
	cold := plan.NewQuery(0)
	cold.AddFilter(0, expr.Pred{Col: 2, Op: expr.BETWEEN, Lo: 0, Hi: 999})
	r.runN(t, hot, 24, 50*time.Millisecond)
	r.runN(t, cold, 3, 50*time.Millisecond)
	evs, err := r.ap.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(evs, func(e autopilot.TuningEvent) bool {
		return e.Stage == autopilot.StageRejected && e.Target == "idx(t0.c2)"
	}) {
		t.Errorf("unselective candidate idx(t0.c2) not rejected; stages = %v", stages(evs))
	}
	r.runN(t, hot, 24, 300*time.Millisecond)
	if _, err := r.ap.Tick(); err != nil {
		t.Fatal(err)
	}
	got := ledger(r)

	r = newRig(t, staleJoinCatalog(t, 42, 1000, 2000), opts(-1))
	q := plan.NewQuery(0, 1)
	q.AddFilter(0, expr.Pred{Col: 2, Op: expr.BETWEEN, Lo: 500, Hi: 509})
	q.AddJoin(expr.JoinCond{LeftTable: 0, LeftCol: 1, RightTable: 1, RightCol: 1})
	for _, step := range []time.Duration{50 * time.Millisecond, 300 * time.Millisecond} {
		r.runN(t, q, 24, step)
		if _, err := r.ap.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	got = append(got, ledger(r)...)

	if _, err := autopilot.LedgerFormat.Validate(bytes.NewReader(got)); err != nil {
		t.Fatalf("ledger fails validation: %v", err)
	}
	golden := filepath.Join("testdata", "tuning.golden.jsonl")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("tuning ledger drifted\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
