package engine_test

import (
	"fmt"
	"sort"
	"testing"

	"ml4db/internal/engine"
	"ml4db/internal/mlmath"
	"ml4db/internal/qo"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/datagen"
	"ml4db/internal/sqlkit/optimizer"
	"ml4db/internal/sqlkit/plan"
	"ml4db/internal/sqlkit/sqlparse"
	"ml4db/internal/views"
)

// bruteForceRows evaluates q by nested loops over the base tables and
// returns each match as its tables' rows concatenated in FROM order — what
// SELECT * must return, as sorted strings so row order does not matter.
func bruteForceRows(cat *catalog.Catalog, q *plan.Query) []string {
	var out []string
	pick := make([]int, q.NumTables())
	var walk func(pos int)
	walk = func(pos int) {
		// Every condition whose sides are both bound must hold before going on.
		for _, j := range q.Joins {
			if max(j.LeftTable, j.RightTable) == pos-1 {
				l := cat.Table(q.Tables[j.LeftTable]).Data[j.LeftCol][pick[j.LeftTable]]
				r := cat.Table(q.Tables[j.RightTable]).Data[j.RightCol][pick[j.RightTable]]
				if l != r {
					return
				}
			}
		}
		if pos == len(pick) {
			var row []int64
			for p, r := range pick {
				for _, col := range cat.Table(q.Tables[p]).Data {
					row = append(row, col[r])
				}
			}
			out = append(out, fmt.Sprint(row))
			return
		}
		for r := 0; r < cat.Table(q.Tables[pos]).NumRows(); r++ {
			pick[pos] = r
			walk(pos + 1)
		}
	}
	walk(0)
	sort.Strings(out)
	return out
}

// TestNoJoinPredicateIsDropped runs cyclic and doubly-joined statements as
// SQL text under every standard hint set, planned serially and for four
// partitions, and with a view over the doubly-joined pair installed: every
// run returns exactly the brute-force rows. Before plans carried every
// crossing condition, each of these returned the 200 rows of the chain join
// alone.
func TestNoJoinPredicateIsDropped(t *testing.T) {
	sch, err := datagen.NewChainSchema(mlmath.NewRNG(7), []int{200, 200, 200})
	if err != nil {
		t.Fatal(err)
	}
	pool := mlmath.NewPool(2)
	defer pool.Close()
	eng := engine.New(sch.Cat, engine.Options{Pool: pool})
	const chain = "SELECT * FROM t0, t1, t2 WHERE t0.next = t1.id AND t1.next = t2.id AND "
	stmts := []struct {
		sql  string
		want int
	}{
		{chain + "t0.attr = t2.attr", 0},
		{chain + "t0.next = t2.next", 1},
		{chain + "t0.id = t2.id", 1},
		{"SELECT * FROM t0, t1 WHERE t0.next = t1.id AND t0.id = t1.next", 1},
		{"SELECT * FROM t0, t1 WHERE t0.next = t1.id AND t0.id = t1.id", 2},
	}
	check := func(label string) {
		t.Helper()
		for _, st := range stmts {
			parsed, err := sqlparse.Parse(sch.Cat, st.sql)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteForceRows(sch.Cat, parsed.Query)
			if len(want) != st.want {
				t.Fatalf("%s: brute force says %d rows, expected %d", st.sql, len(want), st.want)
			}
			for _, h := range optimizer.StandardHintSets() {
				for _, par := range []int{1, 4} {
					eng.SetParallelism(par)
					sess := eng.Session()
					sess.Hint = h
					rr, err := sess.Query(st.sql)
					if err != nil {
						t.Fatalf("%s/%s/P=%d %s: %v", label, h.Name, par, st.sql, err)
					}
					got := make([]string, len(rr.Rows))
					for i, row := range rr.Rows {
						got[i] = fmt.Sprint(row)
					}
					sort.Strings(got)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Errorf("%s/%s/P=%d %s: %d rows, brute force %d\nplan:\n%s", label, h.Name, par, st.sql, len(got), len(want), rr.Exec.Plan)
					}
				}
			}
		}
	}
	check("base")

	// A view over t0.next = t1.id must not swallow the pair's other condition.
	v, err := views.Materialize(qo.NewEnv(sch.Cat),
		views.Candidate{LeftID: sch.TableIDs[0], RightID: sch.TableIDs[1], LeftCol: 1, RightCol: 0}, "v01")
	if err != nil {
		t.Fatal(err)
	}
	eng.SetRewriters([]plan.QueryRewriter{v})
	check("view")
}
