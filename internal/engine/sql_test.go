package engine_test

import (
	"errors"
	"reflect"
	"slices"
	"sort"
	"testing"

	"ml4db/internal/engine"
	"ml4db/internal/qo"
	"ml4db/internal/querystore"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/exec"
	"ml4db/internal/sqlkit/plan"
	"ml4db/internal/views"
)

// kept copies rr and its rows, so that they outlive the session's next Query.
func kept(rr *engine.RowsResult) *engine.RowsResult {
	c := *rr
	c.Rows = slices.Clone(rr.Rows)
	for i := range c.Rows {
		c.Rows[i] = slices.Clone(c.Rows[i])
	}
	return &c
}

// measured is a copy of what an execution reported: its rows, work, counters
// and per-operator actuals.
type measured struct {
	rows     [][]int64
	work     int64
	counters exec.Counters
	actuals  []plan.Actual
}

func measuredOf(r *exec.Result) measured {
	rows := slices.Clone(r.Rows)
	for i := range rows {
		rows[i] = slices.Clone(rows[i])
	}
	return measured{rows: rows, work: r.Work, counters: r.Counters, actuals: slices.Clone(r.Actuals)}
}

// TestQueryRowsLiveUntilTheSessionsNextQuery: a Session.Query's result is
// written into the session's own arena and is valid until its next Query.
// Scribbling on it and appending to a row and to Rows write into nothing
// else: not the tables, not another row, not the next query's rows (which
// equal a fresh session's), not another session's result. The same holds
// for the whole of Exec: the next Query overwrites its Work, Counters,
// Actuals and, with Analyze, Explain in place with what a fresh session
// measures, a budget abort included, and touches no other session's result
// and none of Session.Run's or Engine.Run's. An empty result is a non-nil
// slice, before and after the arena holds rows.
func TestQueryRowsLiveUntilTheSessionsNextQuery(t *testing.T) {
	sch := chainCatalog(t, 8)
	snapshot := func() (s [][]int64) {
		for _, id := range sch.TableIDs {
			for _, c := range sch.Cat.Table(id).Data {
				s = append(s, slices.Clone(c))
			}
		}
		return s
	}
	tables := snapshot()
	eng := engine.New(sch.Cat, engine.Options{})
	const (
		join  = "SELECT t0.id, t1.attr, t0.attr FROM t0, t1 WHERE t0.next = t1.id AND t0.attr >= 300 ORDER BY t0.id"
		scan  = "SELECT attr, id FROM t0 WHERE attr >= 450"
		empty = "SELECT id FROM t0 WHERE id < -9223372036854775808"
	)
	query := func(s *engine.Session, sql string) *engine.RowsResult {
		t.Helper()
		rr, err := s.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return rr
	}
	if rr := query(eng.Session(), empty); rr.Rows == nil || len(rr.Rows) != 0 {
		t.Fatalf("a fresh session's empty result is %#v, want a non-nil empty slice", rr.Rows)
	}
	other := eng.Session()
	theirs := query(other, join)
	want := kept(theirs)
	sess := eng.Session()
	all := len(query(sess, "SELECT * FROM t0").Rows) // the arena holds more rows than join returns
	run, err := sess.Run(chainQuery(sch))
	if err != nil {
		t.Fatal(err)
	}
	engRun, err := eng.Run(chainQuery(sch))
	if err != nil {
		t.Fatal(err)
	}
	ran, engRan, theirsRan := measuredOf(run.Result), measuredOf(engRun.Result), measuredOf(theirs.Exec.Result)
	rr := query(sess, join)
	n := len(rr.Rows)
	if n < 10 || n >= all || !reflect.DeepEqual(rr.Rows, want.Rows) {
		t.Fatalf("%d rows, another session's %d: the check would be vacuous or the sessions disagree", n, len(want.Rows))
	}
	for i, row := range rr.Rows {
		if cap(row) != len(row) {
			t.Fatalf("row %d has len %d, cap %d: an append would overwrite its neighbour", i, len(row), cap(row))
		}
		for j := range row {
			row[j] = -1 - int64(i)
		}
		rr.Rows[i] = append(row, -7)
	}
	if cap(rr.Rows) != n {
		t.Fatalf("Rows has len %d, cap %d: an append would write into the arena", n, cap(rr.Rows))
	}
	rr.Rows = append(rr.Rows, []int64{-9})
	for i, row := range rr.Rows[:n] {
		if row[0] != -1-int64(i) || row[len(row)-1] != -7 {
			t.Fatalf("scribbling on another row changed row %d to %v", i, row)
		}
	}
	for _, sql := range []string{scan, empty, join} {
		got, fresh := query(sess, sql), query(eng.Session(), sql)
		if !reflect.DeepEqual(got.Columns, fresh.Columns) || !reflect.DeepEqual(got.Rows, fresh.Rows) {
			t.Fatalf("%s after scribbling on the session's last result: %d rows, a fresh session's %d", sql, len(got.Rows), len(fresh.Rows))
		}
		if sql == empty && got.Rows == nil {
			t.Fatalf("an empty result after the arena held rows is nil, want a non-nil empty slice")
		}
	}

	// The next Query overwrites Exec in place, Explain included.
	sess.Analyze = true
	last := query(sess, join)
	was, explain := measuredOf(last.Exec.Result), last.Exec.Explain
	next := query(sess, scan)
	fresh := eng.Session()
	fresh.Analyze = true
	wantScan := query(fresh, scan)
	if now := measuredOf(last.Exec.Result); next.Exec != last.Exec || !reflect.DeepEqual(now, measuredOf(wantScan.Exec.Result)) || reflect.DeepEqual(now, was) {
		t.Errorf("after the next Query the last result's Exec reports work %d, %d actuals; a fresh session's %d, %d",
			now.work, len(now.actuals), wantScan.Exec.Work, len(wantScan.Exec.Actuals))
	}
	if explain == nil || explain != next.Exec.Explain || explain.Root != wantScan.Exec.Plan || explain.TotalWork() != wantScan.Exec.Explain.TotalWork() {
		t.Error("the next Query did not overwrite the last result's Explain with its own")
	}
	sess.Analyze = false

	// A budget abort leaves nothing behind for the next Query.
	sess.Budget = &exec.Budget{MaxWork: 50}
	if _, err := sess.Query(join); !errors.Is(err, exec.ErrWorkBudgetExceeded) {
		t.Fatalf("%s under a 50-unit budget: %v, want a budget abort", join, err)
	}
	sess.Budget = nil
	if got, fresh := query(sess, join), query(eng.Session(), join); !reflect.DeepEqual(measuredOf(got.Exec.Result), measuredOf(fresh.Exec.Result)) {
		t.Error("after a budget abort the session's next Query differs from a fresh session's")
	}

	if !reflect.DeepEqual(theirs.Rows, want.Rows) || !reflect.DeepEqual(measuredOf(theirs.Exec.Result), theirsRan) {
		t.Error("another session's queries changed this session's result")
	}
	if !reflect.DeepEqual(measuredOf(run.Result), ran) || !reflect.DeepEqual(measuredOf(engRun.Result), engRan) {
		t.Error("the session's queries changed its Session.Run or the engine's Run result")
	}
	if !reflect.DeepEqual(snapshot(), tables) {
		t.Error("scribbling on a result changed the tables")
	}
}

// TestQueryThroughViewRewriteMatchesBase: the executor applies a statement's
// select list, ORDER BY and LIMIT to the plan's columns, and a view rewrite
// moves those columns — several FROM tables fold into one wider view table.
// The same SQL must return the same projected, ordered, limited rows with a
// rewriter installed as without. Every ORDER BY here ends on t0.id, unique
// per joined row, so the answer does not depend on which plan's executor
// order breaks ties; the statement without ORDER BY compares as a multiset.
// The output mapped through the rewrite is the session's own, reused: a warm
// rewritten statement allocates no more than the same statement without the
// view (whose plan has one join more).
func TestQueryThroughViewRewriteMatchesBase(t *testing.T) {
	sch := chainCatalog(t, 21)
	eng := engine.New(sch.Cat, engine.Options{})
	sess := eng.Session()
	const from = " FROM t0, t1, t2 WHERE t0.next = t1.id AND t1.next = t2.id AND t0.attr >= 450"
	stmts := []string{
		"SELECT t1.attr, t2.id, t0.attr, t1.attr" + from + " ORDER BY t1.attr DESC, t0.id LIMIT 25",
		"SELECT t2.attr" + from + " ORDER BY t2.attr, t1.next DESC, t0.id DESC",
		"SELECT *" + from + " ORDER BY t0.id LIMIT 7",
		"SELECT t0.id, t1.id, t2.id" + from,
	}
	run := func(wantRewritten bool) (out []*engine.RowsResult, allocs []float64) {
		for _, sql := range stmts {
			rr, err := sess.Query(sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			if (rr.Exec.PosMap != nil) != wantRewritten {
				t.Fatalf("%s: rewritten = %v, want %v", sql, rr.Exec.PosMap != nil, wantRewritten)
			}
			out = append(out, kept(rr))
			allocs = append(allocs, testing.AllocsPerRun(20, func() { sess.Query(sql) }))
		}
		return out, allocs
	}
	base, baseAllocs := run(false)
	v, err := views.Materialize(qo.NewEnv(sch.Cat),
		views.Candidate{LeftID: sch.TableIDs[0], RightID: sch.TableIDs[1], LeftCol: 1, RightCol: 0}, "v01")
	if err != nil {
		t.Fatal(err)
	}
	eng.SetRewriters([]plan.QueryRewriter{v})
	through, throughAllocs := run(true)

	byValue := func(rows [][]int64) [][]int64 {
		rows = append([][]int64(nil), rows...)
		sort.Slice(rows, func(i, j int) bool {
			for k := range rows[i] {
				if rows[i][k] != rows[j][k] {
					return rows[i][k] < rows[j][k]
				}
			}
			return false
		})
		return rows
	}
	for i, sql := range stmts {
		b, th := base[i], through[i]
		if len(b.Rows) == 0 {
			t.Fatalf("%s: no rows; the comparison would be vacuous", sql)
		}
		if !reflect.DeepEqual(b.Columns, th.Columns) {
			t.Errorf("%s: columns %v through the view, %v over base tables", sql, th.Columns, b.Columns)
		}
		bRows, thRows := b.Rows, th.Rows
		if i == len(stmts)-1 { // no ORDER BY
			bRows, thRows = byValue(bRows), byValue(thRows)
		}
		if !reflect.DeepEqual(bRows, thRows) {
			t.Errorf("%s: %d rows through the view differ from the %d over base tables", sql, len(thRows), len(bRows))
		}
		if throughAllocs[i] > baseAllocs[i] {
			t.Errorf("%s: %.0f allocations per warm query through the view, %.0f over base tables", sql, throughAllocs[i], baseAllocs[i])
		}
	}
}

// TestLimitDoesNotChangeStatementCardinality: LIMIT is presentation. The rows
// a statement returns shrink with it; the cardinality the query store records
// for the statement — sys_statements.total_rows — stays the root operator's.
func TestLimitDoesNotChangeStatementCardinality(t *testing.T) {
	sch := chainCatalog(t, 7)
	store := querystore.New(querystore.Options{Catalog: sch.Cat})
	sess := engine.New(sch.Cat, engine.Options{Store: store}).Session()
	all, err := sess.Query("SELECT id FROM t0 WHERE attr >= 450")
	if err != nil {
		t.Fatal(err)
	}
	card := int64(len(all.Rows))
	if card < 10 {
		t.Fatalf("only %d rows pass the filter", card)
	}
	for _, sql := range []string{
		"SELECT id FROM t0 WHERE attr >= 450 LIMIT 3",
		"SELECT attr, id FROM t0 WHERE attr >= 450 ORDER BY attr DESC LIMIT 0",
	} {
		rr, err := sess.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if len(rr.Rows) > 3 || len(rr.Exec.Rows) != len(rr.Rows) {
			t.Fatalf("%s returned %d rows (%d in Exec)", sql, len(rr.Rows), len(rr.Exec.Rows))
		}
	}
	// One statement shape, three executions, each of the full cardinality.
	st, err := sess.Query("SELECT calls, total_rows FROM sys_statements")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Rows) != 1 || st.Rows[0][0] != 3 || st.Rows[0][1] != 3*card {
		t.Fatalf("sys_statements (calls, total_rows) = %v, want one statement with 3 calls and %d rows", st.Rows, 3*card)
	}
}

// TestQueryInt64ExtremeLiterals runs both ends of the int64 range through the
// whole path: every id is >= the smallest int64 and <= the largest, none is
// beyond either — whether the planner reads the column through a sequential
// scan or, with a secondary index on it, through an IndexScan.
func TestQueryInt64ExtremeLiterals(t *testing.T) {
	sch := chainCatalog(t, 3)
	eng := engine.New(sch.Cat, engine.Options{})
	sess := eng.Session()
	t0 := sch.Cat.Table(sch.TableIDs[0])
	rows := t0.NumRows()
	for _, indexed := range []bool{false, true} {
		if indexed {
			t0.AddIndex(catalog.BuildSecondaryIndex(t0, 0))
			eng.NotifyDesignChange()
		}
		indexScans := 0
		for _, tc := range []struct {
			where string
			want  int
		}{
			{"id >= -9223372036854775808", rows},
			{"id < -9223372036854775808", 0},
			{"id <= 9223372036854775807", rows},
			{"id > 9223372036854775807", 0},
		} {
			rr, err := sess.Query("SELECT attr FROM t0 WHERE " + tc.where)
			if err != nil {
				t.Fatalf("%s: %v", tc.where, err)
			}
			if len(rr.Rows) != tc.want {
				t.Errorf("indexed=%v, %s: %d rows, want %d (plan %s)", indexed, tc.where, len(rr.Rows), tc.want, rr.Exec.Plan.Head())
			}
			if rr.Exec.Plan.Op == plan.OpIndexScan {
				indexScans++
			}
		}
		if indexed && indexScans == 0 {
			t.Error("no statement was planned as an IndexScan; the indexed half of the test is vacuous")
		}
	}
}
