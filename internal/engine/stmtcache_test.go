package engine_test

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"ml4db/internal/engine"
	"ml4db/internal/obs"
	"ml4db/internal/querystore"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/optimizer"
)

// memoStatements are texts over the chain testbed covering what the
// statement memo stores: SELECT * expansion, a select list with ORDER BY
// and LIMIT, joins, NE, BETWEEN and int64 extremes, plus two spellings of
// one shape (filters swapped) that share a plan and a statement record.
var memoStatements = []string{
	"SELECT * FROM t0, t1 WHERE t0.next = t1.id AND t0.attr >= 450",
	"SELECT t1.attr, t0.id FROM t0, t1, t2 WHERE t0.next = t1.id AND t1.next = t2.id AND t2.attr <> 500 ORDER BY t1.attr DESC, t0.id LIMIT 12",
	"SELECT id, attr FROM t0 WHERE attr BETWEEN 400 AND 600 AND id >= 10",
	"SELECT id, attr FROM t0 WHERE id >= 10 AND attr BETWEEN 400 AND 600",
	"SELECT * FROM t2 WHERE id > -9223372036854775808 AND attr <= 9223372036854775807",
}

// TestMemoHitEqualsFresh: a text answered from the statement memo returns
// what a fresh engine returns for it — the same column names, rows and plan
// — and lands in the same query-store statement as its first call. The
// fresh engine runs the same texts in the same order, once each, so both
// plan caches hold the same plans (the two spellings of one shape share the
// first spelling's plan on both).
func TestMemoHitEqualsFresh(t *testing.T) {
	sch := chainCatalog(t, 31)
	reg := obs.NewRegistry()
	store := querystore.New(querystore.Options{Catalog: sch.Cat})
	sess := engine.New(sch.Cat, engine.Options{Metrics: reg, Store: store}).Session()
	freshStore := querystore.New(querystore.Options{Catalog: sch.Cat})
	freshSess := engine.New(sch.Cat, engine.Options{Store: freshStore}).Session()
	for _, sql := range memoStatements {
		first, err := sess.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		first = kept(first) // the memo hit below overwrites it
		hit, err := sess.Query(sql)
		if err != nil {
			t.Fatalf("%s, again: %v", sql, err)
		}
		fresh, err := freshSess.Query(sql)
		if err != nil {
			t.Fatalf("%s, fresh engine: %v", sql, err)
		}
		if len(fresh.Rows) == 0 {
			t.Fatalf("%s returns no rows; the comparison would be vacuous", sql)
		}
		for what, got := range map[string]*engine.RowsResult{"first call": first, "memo hit": hit} {
			if !reflect.DeepEqual(got.Columns, fresh.Columns) {
				t.Errorf("%s: %s columns %v, fresh engine %v", sql, what, got.Columns, fresh.Columns)
			}
			if !reflect.DeepEqual(got.Rows, fresh.Rows) {
				t.Errorf("%s: %s returned %d rows unlike the fresh engine's %d", sql, what, len(got.Rows), len(fresh.Rows))
			}
			if !reflect.DeepEqual(got.Exec.Plan, fresh.Exec.Plan) {
				t.Errorf("%s: %s ran\n%s\nthe fresh engine\n%s", sql, what, got.Exec.Plan, fresh.Exec.Plan)
			}
		}
	}
	if hits, n := reg.Counter("engine.stmtcache.hits").Value(), int64(len(memoStatements)); hits != n {
		t.Errorf("engine.stmtcache.hits = %d, want one per text, %d", hits, n)
	}
	// Every call, memoised or not, lands in its shape's statement record.
	got, want := store.Statements(), freshStore.Statements()
	if len(got) != len(want) || len(got) != len(memoStatements)-1 {
		t.Fatalf("%d statements recorded, fresh engine %d, want %d (two texts share a shape)", len(got), len(want), len(memoStatements)-1)
	}
	for i, w := range want {
		g := got[i]
		if g.Shape != w.Shape || g.Calls != 2*w.Calls || g.TotalRows != 2*w.TotalRows || g.TotalWork != 2*w.TotalWork {
			t.Errorf("statement %d: %q %d calls, %d rows, %d work; fresh engine %q %d calls, %d rows, %d work (want twice each)",
				i, g.Shape, g.Calls, g.TotalRows, g.TotalWork, w.Shape, w.Calls, w.TotalRows, w.TotalWork)
		}
	}
}

// TestMemoStoresNoErrors: a text that fails to parse is parsed again on every
// call, so it succeeds as soon as the catalog can answer it.
func TestMemoStoresNoErrors(t *testing.T) {
	sch := chainCatalog(t, 32)
	reg := obs.NewRegistry()
	eng := engine.New(sch.Cat, engine.Options{Metrics: reg})
	sess := eng.Session()
	const sql = "SELECT b FROM extra WHERE a = 3"
	for i := 0; i < 2; i++ {
		if _, err := sess.Query(sql); err == nil {
			t.Fatalf("call %d: no error for a table the catalog lacks", i)
		}
	}
	if hits := reg.Counter("engine.stmtcache.hits").Value(); hits != 0 {
		t.Fatalf("engine.stmtcache.hits = %d after two failed parses, want 0", hits)
	}
	eng.Quiesce(func() {
		extra := catalog.NewTable("extra", "a", "b")
		for i := int64(0); i < 5; i++ {
			if err := extra.AppendRow([]int64{i, 10 * i}); err != nil {
				t.Fatal(err)
			}
		}
		sch.Cat.MustAdd(extra)
		eng.NotifyDesignChange()
	})
	rr, err := sess.Query(sql)
	if err != nil {
		t.Fatalf("after the table was added: %v", err)
	}
	if !reflect.DeepEqual(rr.Rows, [][]int64{{30}}) {
		t.Errorf("rows = %v, want [[30]]", rr.Rows)
	}
}

// TestMemoDroppedOnDesignChange: a table replaced under Quiesce by one of the
// same name with other columns, followed by NotifyDesignChange, must be read
// with its new columns by a text the memo already holds. Only the memo's
// drop in Engine.update makes that so; the plan cache's epoch does not reach
// the memo.
func TestMemoDroppedOnDesignChange(t *testing.T) {
	sch := chainCatalog(t, 33)
	eng := engine.New(sch.Cat, engine.Options{})
	sess := eng.Session()
	add := func(cols ...string) int {
		tb := catalog.NewTable("extra", cols...)
		row := make([]int64, len(cols))
		for i := range row {
			row[i] = int64(i + 1)
		}
		if err := tb.AppendRow(row); err != nil {
			t.Fatal(err)
		}
		return sch.Cat.MustAdd(tb)
	}
	id := add("a", "b")
	const sql = "SELECT * FROM extra"
	for i := 0; i < 2; i++ {
		rr, err := sess.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rr.Columns, []string{"a", "b"}) {
			t.Fatalf("call %d: columns %v, want [a b]", i, rr.Columns)
		}
	}
	eng.Quiesce(func() {
		if err := sch.Cat.DropLast(id); err != nil {
			t.Fatal(err)
		}
		add("a", "b", "c")
		eng.NotifyDesignChange()
	})
	rr, err := sess.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rr.Columns, []string{"a", "b", "c"}) || !reflect.DeepEqual(rr.Rows, [][]int64{{1, 2, 3}}) {
		t.Errorf("after the design change: columns %v rows %v, want [a b c] [[1 2 3]]", rr.Columns, rr.Rows)
	}
}

// TestMemoSharedAcrossHintNamesUnderRace: sessions under different hint
// names send the same texts at once, while design changes drop the memo
// under them (run it with -race). Every answer equals the serial one.
func TestMemoSharedAcrossHintNamesUnderRace(t *testing.T) {
	sch := chainCatalog(t, 34)
	hints := optimizer.StandardHintSets()[:4]
	type answer struct {
		cols []string
		rows [][]int64
	}
	serial := make([][]answer, len(hints))
	serialStore := querystore.New(querystore.Options{Catalog: sch.Cat})
	for h, hint := range hints {
		sess := engine.New(sch.Cat, engine.Options{Store: serialStore}).Session()
		sess.Hint = hint
		for _, sql := range memoStatements {
			rr, err := sess.Query(sql)
			if err != nil {
				t.Fatalf("%s under %s: %v", sql, hint.Name, err)
			}
			serial[h] = append(serial[h], answer{rr.Columns, kept(rr).Rows})
		}
	}

	reg := obs.NewRegistry()
	store := querystore.New(querystore.Options{Catalog: sch.Cat})
	eng := engine.New(sch.Cat, engine.Options{Metrics: reg, Store: store})
	const rounds = 40
	var wg sync.WaitGroup
	for h := range hints {
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(h int) {
				defer wg.Done()
				sess := eng.Session()
				sess.Hint = hints[h]
				for r := 0; r < rounds; r++ {
					for i, sql := range memoStatements {
						rr, err := sess.Query(sql)
						if err != nil {
							t.Errorf("%s under %s: %v", sql, hints[h].Name, err)
							return
						}
						if want := serial[h][i]; !reflect.DeepEqual(rr.Columns, want.cols) || !reflect.DeepEqual(rr.Rows, want.rows) {
							t.Errorf("%s under %s: answer differs from the serial one", sql, hints[h].Name)
							return
						}
					}
				}
			}(h)
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			eng.NotifyDesignChange()
		}
	}()
	wg.Wait()
	if reg.Counter("engine.stmtcache.hits").Value() == 0 {
		t.Error("no session was served from the memo; the test is vacuous")
	}
	// Each call was recorded under its own hint's name: the memo never hands
	// one hint's shape to another.
	shapes := func(st *querystore.Store) []string {
		var out []string
		for _, s := range st.Statements() {
			out = append(out, s.Shape)
		}
		slices.Sort(out)
		return out
	}
	if got, want := shapes(store), shapes(serialStore); !slices.Equal(got, want) {
		t.Errorf("statement shapes\n%q\nserially\n%q", got, want)
	}
}
