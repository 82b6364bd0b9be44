package engine_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ml4db/internal/engine"
	"ml4db/internal/mlmath"
	"ml4db/internal/querystore"
	"ml4db/internal/sqlkit/datagen"
	"ml4db/internal/sqlkit/exec"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/plan"
)

// TestQuerystoreEndToEnd is the acceptance path: a workload runs through the
// engine with a store attached, and SELECTing from sys_statements through
// the normal planner/executor returns counts that exactly match what was
// executed.
func TestQuerystoreEndToEnd(t *testing.T) {
	sch := chainCatalog(t, 7)
	store := querystore.New(querystore.Options{
		Clock:   &mlmath.ManualClock{T: time.Unix(0, 0)},
		Catalog: sch.Cat,
	})
	eng := engine.New(sch.Cat, engine.Options{Store: store})
	sess := eng.Session()

	q1 := chainQuery(sch)
	q2 := chainQuery(sch)
	q2.Filters[0] = []expr.Pred{{Col: 2, Op: expr.GE, Lo: 900}}

	var totalWork, cacheHits, fallbacks int64
	run := func(q *plan.Query) {
		res, err := sess.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		totalWork += res.Work
		if res.CacheHit {
			cacheHits++
		}
		if res.Fallback {
			fallbacks++
		}
	}
	run(q1)
	run(q1)
	run(q1)
	run(q2)

	// One budget abort on q1's shape: recorded against the same statement.
	tiny := eng.Session()
	tiny.Budget = &exec.Budget{MaxWork: 10}
	out, err := tiny.Run(q1)
	if !errors.Is(err, exec.ErrWorkBudgetExceeded) {
		t.Fatalf("tiny budget err = %v, want budget abort", err)
	}
	if out.Result != nil {
		totalWork += out.Work
	}
	if out.CacheHit { // the aborted run still hit the plan cache
		cacheHits++
	}

	rr, err := sess.Query("SELECT * FROM sys_statements ORDER BY total_work DESC")
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Columns) != 14 || rr.Columns[0] != "stmt_id" {
		t.Fatalf("columns = %v", rr.Columns)
	}
	if len(rr.Rows) != 2 {
		t.Fatalf("sys_statements rows = %d, want 2 distinct shapes", len(rr.Rows))
	}
	col := func(name string) int {
		for i, c := range rr.Columns {
			if c == name {
				return i
			}
		}
		t.Fatalf("no column %q", name)
		return -1
	}
	calls, work, hits, fb, aborts := col("calls"), col("total_work"), col("cache_hits"), col("fallbacks"), col("budget_aborts")
	// Ordered by total_work DESC: q1's statement (4 calls) first.
	if rr.Rows[0][calls] != 4 || rr.Rows[1][calls] != 1 {
		t.Errorf("calls = %d,%d want 4,1", rr.Rows[0][calls], rr.Rows[1][calls])
	}
	var sumWork, sumHits, sumFB, sumAborts int64
	for _, r := range rr.Rows {
		sumWork += r[work]
		sumHits += r[hits]
		sumFB += r[fb]
		sumAborts += r[aborts]
	}
	if sumWork != totalWork {
		t.Errorf("sys total_work = %d, executed work = %d", sumWork, totalWork)
	}
	if sumHits != cacheHits || cacheHits != 3 {
		t.Errorf("sys cache_hits = %d, driver saw %d (want 3)", sumHits, cacheHits)
	}
	if sumFB != fallbacks {
		t.Errorf("sys fallbacks = %d, driver saw %d", sumFB, fallbacks)
	}
	if sumAborts != 1 {
		t.Errorf("sys budget_aborts = %d, want 1", sumAborts)
	}

	// The SELECT itself was recorded after its own snapshot: a third shape
	// exists now.
	if got := len(store.Statements()); got != 3 {
		t.Errorf("statements after SELECT = %d, want 3", got)
	}

	// Heat map saw the filter column and the two join key columns.
	heat := store.Heat()
	if len(heat) == 0 {
		t.Fatal("no heat recorded")
	}
	var filterSeen, joinSeen bool
	for _, h := range heat {
		if h.FilterCount > 0 {
			filterSeen = true
		}
		if h.JoinCount > 0 {
			joinSeen = true
		}
	}
	if !filterSeen || !joinSeen {
		t.Errorf("heat missing filter or join columns: %+v", heat)
	}
}

// TestFilteredSystemViewsRecordHeat: the query store folds a statement's
// heat samples into its heat map under its own lock, and a filtered scan's
// sample reads its table's row count — for sys_statements and sys_windows,
// a count the store itself serves. Querying them with a filter must record
// like any other statement, not wait on the lock the recording holds.
func TestFilteredSystemViewsRecordHeat(t *testing.T) {
	sch := chainCatalog(t, 7)
	store := querystore.New(querystore.Options{Clock: &mlmath.ManualClock{T: time.Unix(0, 0)}, Catalog: sch.Cat})
	sess := engine.New(sch.Cat, engine.Options{Store: store}).Session()
	done := make(chan error, 1)
	go func() {
		for _, sql := range []string{"SELECT id FROM t0 WHERE attr >= 450", "SELECT calls FROM sys_statements WHERE calls >= 1",
			"SELECT calls FROM sys_statements WHERE calls >= 1", "SELECT queries FROM sys_windows WHERE queries >= 0"} {
			if _, err := sess.Query(sql); err != nil {
				done <- fmt.Errorf("%s: %v", sql, err)
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("a filtered query over a system view did not finish: recording it waits on the store's own lock")
	}
	// sys_statements holds rows, so each sample has a selectivity; no window
	// was sealed, so sys_windows holds none and its sample has none.
	got := map[string]querystore.ColumnHeat{}
	for _, h := range store.Heat() {
		got[sch.Cat.Table(h.TableID).Name] = h
	}
	if h := got[querystore.ViewStatements]; h.FilterCount != 2 || h.SelCount != 2 {
		t.Errorf("sys_statements heat %+v, want 2 filter samples with a selectivity each", h)
	}
	if h := got[querystore.ViewWindows]; h.FilterCount != 1 || h.SelCount != 0 {
		t.Errorf("sys_windows heat %+v, want 1 filter sample without a selectivity", h)
	}
}

// TestQuerystoreModelViewAndInstallEvents checks sys_models through SQL
// after estimator installs.
func TestQuerystoreModelViewAndInstallEvents(t *testing.T) {
	sch := chainCatalog(t, 8)
	store := querystore.New(querystore.Options{Clock: &mlmath.ManualClock{T: time.Unix(0, 0)}})
	eng := engine.New(sch.Cat, engine.Options{Store: store})
	if err := eng.SetEstimator(nanEstimator{}, 5); err != nil {
		t.Fatal(err)
	}
	if err := eng.SetEstimator(nil, 0); err != nil {
		t.Fatal(err)
	}
	rr, err := eng.Session().Query("SELECT version FROM sys_models ORDER BY seq")
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Rows) != 2 || rr.Rows[0][0] != 5 || rr.Rows[1][0] != 0 {
		t.Errorf("sys_models versions = %v, want [5] [0]", rr.Rows)
	}
}

// TestQuerystoreReplayByteIdentical pins the determinism contract at the
// engine level: two replays of the same workload under a fresh ManualClock
// produce byte-identical querystore exports.
func TestQuerystoreReplayByteIdentical(t *testing.T) {
	replay := func() []byte {
		sch := chainCatalog(t, 9)
		mc := &mlmath.ManualClock{T: time.Unix(100, 0)}
		store := querystore.New(querystore.Options{Clock: mc, Catalog: sch.Cat})
		eng := engine.New(sch.Cat, engine.Options{Store: store})
		sess := eng.Session()
		for i := 0; i < 6; i++ {
			if _, err := sess.Run(chainQuery(sch)); err != nil {
				t.Fatal(err)
			}
			mc.Advance(300 * time.Millisecond)
		}
		store.Flush()
		var buf bytes.Buffer
		if err := store.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := replay(), replay()
	if !bytes.Equal(a, b) {
		t.Errorf("replays diverged:\n%s\nvs\n%s", a, b)
	}
}

// TestQuerystoreExportGolden replays ten star statements over a
// 2 000-row, 4-dimension star three times under a ManualClock stepping
// 250 ms per statement (so windows close mid-run), and pins the whole export
// byte for byte against testdata/querystore.golden.jsonl. The export must
// also pass the querystore schema validator. Regenerate with UPDATE_GOLDEN=1
// only for an intended change to what the store records or how it exports.
func TestQuerystoreExportGolden(t *testing.T) {
	sch, err := datagen.NewStarSchema(mlmath.NewRNG(42), 2000, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]*plan.Query, 10)
	for i := range qs {
		qs[i] = plan.NewQuery(append([]int{sch.FactID}, sch.DimIDs...)...)
		qs[i].AddFilter(0, expr.Pred{Col: sch.AttrCols[0], Op: expr.GE, Lo: int64(860 + 7*i)})
		for d, col := range sch.FKCol {
			qs[i].AddJoin(expr.JoinCond{LeftTable: 0, LeftCol: col, RightTable: d + 1, RightCol: 0})
		}
	}
	mc := &mlmath.ManualClock{T: time.Unix(0, 0)}
	store := querystore.New(querystore.Options{Clock: mc, Catalog: sch.Cat})
	sess := engine.New(sch.Cat, engine.Options{Store: store}).Session()
	for round := 0; round < 3; round++ {
		for _, q := range qs {
			if _, err := sess.Run(q); err != nil {
				t.Fatal(err)
			}
			mc.Advance(250 * time.Millisecond)
		}
	}
	store.Flush()
	var buf bytes.Buffer
	if err := store.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := querystore.ValidateJSONL(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("export fails validation: %v", err)
	}
	golden := filepath.Join("testdata", "querystore.golden.jsonl")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("querystore export drifted\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestRegisterViewsCollision: a non-virtual table on a sys_ name is a
// construction error.
func TestRegisterViewsCollision(t *testing.T) {
	sch := chainCatalog(t, 10)
	tbl := sch.Cat.Tables[0]
	tbl2 := *tbl
	tbl2.Name = "sys_statements"
	sch.Cat.MustAdd(&tbl2)
	defer func() {
		if recover() == nil {
			t.Error("engine.New did not panic on a squatted sys_ name")
		}
	}()
	engine.New(sch.Cat, engine.Options{Store: querystore.New(querystore.Options{})})
}
