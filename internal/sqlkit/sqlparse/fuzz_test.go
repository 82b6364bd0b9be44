package sqlparse

import (
	"reflect"
	"testing"

	"ml4db/internal/sqlkit/plan"
)

// FuzzParse holds Parse to what every later layer assumes of it: arbitrary
// bytes never panic, the same text parses the same way twice, and an
// accepted statement names only tables of its own FROM list and columns those
// tables have, with one filter list per table — the planner and executor
// index with these numbers unchecked. The seed
// corpus (testdata/fuzz/FuzzParse) runs with the ordinary tests; fuzz with
// go test -run '^$' -fuzz FuzzParse ./internal/sqlkit/sqlparse/.
func FuzzParse(f *testing.F) {
	cat := testCatalog(f)
	f.Fuzz(func(t *testing.T, sql string) {
		st, err := Parse(cat, sql)
		again, errAgain := Parse(cat, sql)
		if !reflect.DeepEqual(st, again) || !reflect.DeepEqual(err, errAgain) {
			t.Fatalf("two parses of %q differ:\n%+v, %v\n%+v, %v", sql, st, err, again, errAgain)
		}
		if err != nil {
			if st != nil {
				t.Fatalf("%q: a statement came back with the error %v", sql, err)
			}
			return
		}
		tables := st.Query.Tables
		col := func(what string, c plan.AggCol) {
			if c.Table < 0 || c.Table >= len(tables) {
				t.Fatalf("%q: %s names table position %d of %d", sql, what, c.Table, len(tables))
			}
			if n := cat.Table(tables[c.Table]).NumCols(); c.Col < 0 || c.Col >= n {
				t.Fatalf("%q: %s names column %d of a %d-column table", sql, what, c.Col, n)
			}
		}
		for _, c := range st.Cols {
			col("the select list", c)
		}
		for _, k := range st.OrderBy {
			col("ORDER BY", k.Col)
		}
		if len(st.Query.Filters) != len(tables) {
			t.Fatalf("%q: %d filter lists for %d tables", sql, len(st.Query.Filters), len(tables))
		}
		for pos, preds := range st.Query.Filters {
			for _, p := range preds {
				col("filter "+p.String(), plan.AggCol{Table: pos, Col: p.Col})
			}
		}
		for _, j := range st.Query.Joins {
			col("join "+j.String(), plan.AggCol{Table: j.LeftTable, Col: j.LeftCol})
			col("join "+j.String(), plan.AggCol{Table: j.RightTable, Col: j.RightCol})
		}
		if st.Limit != plan.NoLimit && st.Limit < 0 {
			t.Fatalf("%q: Limit = %d, want NoLimit or a count", sql, st.Limit)
		}
	})
}
