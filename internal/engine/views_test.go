package engine_test

import (
	"reflect"
	"testing"

	"ml4db/internal/engine"
	"ml4db/internal/qo"
	"ml4db/internal/querystore"
	"ml4db/internal/sqlkit/plan"
	"ml4db/internal/views"
)

// TestViewRewriteCoherenceAndStaleness covers the engine side of view
// adoption: installing a rewriter invalidates cached plans and reroutes the
// query through the view without changing results; a stale view keeps
// serving its materialization-time snapshot even after base tables grow and
// statistics refresh; removing the rewriter invalidates again and restores
// fresh base-table results.
func TestViewRewriteCoherenceAndStaleness(t *testing.T) {
	sch := chainCatalog(t, 21)
	eng := engine.New(sch.Cat, engine.Options{})
	sess := eng.Session()
	q := chainQuery(sch)

	warm, err := sess.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := sess.Run(q); err != nil || !res.CacheHit {
		t.Fatalf("warm replay: err=%v hit=%v, want cached", err, res.CacheHit)
	}

	v, err := views.Materialize(qo.NewEnv(sch.Cat),
		views.Candidate{LeftID: sch.TableIDs[0], RightID: sch.TableIDs[1], LeftCol: 1, RightCol: 0}, "v01")
	if err != nil {
		t.Fatal(err)
	}
	eng.SetRewriters([]plan.QueryRewriter{v})

	through, err := sess.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if through.CacheHit {
		t.Error("cached plan served after a rewriter install")
	}
	if len(through.Rows) != len(warm.Rows) {
		t.Fatalf("rows through view = %d, base = %d", len(through.Rows), len(warm.Rows))
	}
	if through.Query == nil || through.Query.NumTables() != 2 {
		t.Fatalf("executed query not rewritten: %+v", through.Query)
	}
	if through.PosMap == nil {
		t.Fatal("rewritten result carries no position map")
	}
	if res, err := sess.Run(q); err != nil || !res.CacheHit {
		t.Fatalf("replay through view: err=%v hit=%v, want cached", err, res.CacheHit)
	}

	// Base growth the view does not reflect: 50 fresh t0 rows that pass the
	// filter and join all the way through.
	t0 := sch.Cat.Table(sch.TableIDs[0])
	for i := 0; i < 50; i++ {
		if err := t0.AppendRow([]int64{int64(400 + i), int64(i % 200), 999}); err != nil {
			t.Fatal(err)
		}
	}
	eng.RefreshStats(32, 512)
	stale, err := sess.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(stale.Rows) != len(warm.Rows) {
		t.Fatalf("stale view rows = %d, want the materialization-time %d (views do not auto-refresh)",
			len(stale.Rows), len(warm.Rows))
	}

	// Dropping the rewriter is the invalidation contract: the next run
	// re-plans over base tables and sees the new rows.
	eng.SetRewriters(nil)
	fresh, err := sess.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.CacheHit {
		t.Error("cached plan served after a rewriter removal")
	}
	if fresh.PosMap != nil || fresh.Query.NumTables() != 3 {
		t.Errorf("post-removal query still rewritten: tables=%d posmap=%v", fresh.Query.NumTables(), fresh.PosMap)
	}
	if len(fresh.Rows) != len(warm.Rows)+50 {
		t.Fatalf("fresh rows = %d, want %d (base growth visible again)", len(fresh.Rows), len(warm.Rows)+50)
	}
}

// TestViewRewriteFilterOrderIsDeterministic: a rewrite that folds two
// filtered tables into one view table lists the view leaf's filters in table
// position order. While plan.Query kept filters in a map the order followed
// Go's map iteration: this statement planned to two different trees, about
// one engine in seven rendering the minority one.
func TestViewRewriteFilterOrderIsDeterministic(t *testing.T) {
	sch := chainCatalog(t, 21)
	v, err := views.Materialize(qo.NewEnv(sch.Cat),
		views.Candidate{LeftID: sch.TableIDs[0], RightID: sch.TableIDs[1], LeftCol: 1, RightCol: 0}, "v01")
	if err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT t0.id FROM t0, t1, t2 WHERE t0.next = t1.id AND t1.next = t2.id" +
		" AND t0.attr >= 450 AND t1.attr <= 900 AND t2.attr >= 3"
	var first string
	for i := 0; i < 200; i++ {
		eng := engine.New(sch.Cat, engine.Options{})
		eng.SetRewriters([]plan.QueryRewriter{v})
		rr, err := eng.Session().Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		got := rr.Exec.Plan.String()
		if rr.Exec.PosMap == nil || len(rr.Rows) == 0 {
			t.Fatalf("rewritten = %v, %d rows; the check would be vacuous\n%s", rr.Exec.PosMap != nil, len(rr.Rows), got)
		}
		if i == 0 {
			first = got
		} else if got != first {
			t.Fatalf("engine %d planned a different tree for the same statement:\n%s\nthe first:\n%s", i, got, first)
		}
	}
}

// TestStatementTemplateIsTheCallersQuery: a statement first seen while a view
// rewrite is installed is recorded in the query store under a template over
// its own base tables, declared joins included — not over the view table the
// executed plan scanned, which a later views.Drop would leave at 0 rows for
// every what-if costing of the statement.
func TestStatementTemplateIsTheCallersQuery(t *testing.T) {
	sch := chainCatalog(t, 21)
	store := querystore.New(querystore.Options{Catalog: sch.Cat})
	eng := engine.New(sch.Cat, engine.Options{Store: store})
	v, err := views.Materialize(qo.NewEnv(sch.Cat),
		views.Candidate{LeftID: sch.TableIDs[0], RightID: sch.TableIDs[1], LeftCol: 1, RightCol: 0}, "v01")
	if err != nil {
		t.Fatal(err)
	}
	eng.SetRewriters([]plan.QueryRewriter{v})
	q := chainQuery(sch)
	res, err := eng.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.PosMap == nil {
		t.Fatal("statement did not run through the view; the check would be vacuous")
	}
	sts := store.Statements()
	if len(sts) != 1 || !reflect.DeepEqual(sts[0].Template, q) {
		t.Fatalf("template = %+v, want the caller's query %+v", sts[0].Template, q)
	}
	if sts[0].Template == q {
		t.Error("template aliases the caller's query")
	}
}
