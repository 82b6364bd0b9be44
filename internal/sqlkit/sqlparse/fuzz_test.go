package sqlparse

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/plan"
)

// fuzzCatalog is testCatalog plus the tables of a six-dimension star schema
// as datagen.NewStarSchema names them (fact and dim0…dim5), so the corpus
// can hold the engine's star joins.
func fuzzCatalog(tb testing.TB) *catalog.Catalog {
	cat := testCatalog(tb)
	factCols := []string{"fk0", "fk1", "fk2", "fk3", "fk4", "fk5", "attr0", "attr1", "attr2"}
	for d := range 6 {
		cat.MustAdd(catalog.NewTable(fmt.Sprintf("dim%d", d), "id", "a", "b"))
	}
	cat.MustAdd(catalog.NewTable("fact", factCols...))
	return cat
}

// render writes st back as SQL that Parse reads as st again: every column
// qualified by its table's catalog name, each table's filters in order, then
// the joins in order. A table named twice in FROM is no obstacle: Parse binds
// every reference to it to its first position, and so does the rendered text.
func render(cat *catalog.Catalog, st *Stmt) string {
	q := st.Query
	var b strings.Builder
	ref := func(c plan.AggCol) {
		t := cat.Table(q.Tables[c.Table])
		b.WriteString(t.Name + "." + t.Columns[c.Col].Name)
	}
	b.WriteString("SELECT ")
	if st.Cols == nil {
		b.WriteString("*")
	}
	for i, c := range st.Cols {
		if i > 0 {
			b.WriteString(", ")
		}
		ref(c)
	}
	b.WriteString(" FROM ")
	for i, id := range q.Tables {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(cat.Table(id).Name)
	}
	sep := " WHERE "
	for pos, preds := range q.Filters {
		for _, p := range preds {
			b.WriteString(sep)
			sep = " AND "
			ref(plan.AggCol{Table: pos, Col: p.Col})
			if p.Op == expr.BETWEEN {
				fmt.Fprintf(&b, " BETWEEN %d AND %d", p.Lo, p.Hi)
			} else {
				fmt.Fprintf(&b, " %s %d", p.Op, p.Lo)
			}
		}
	}
	for _, j := range q.Joins {
		b.WriteString(sep)
		sep = " AND "
		ref(plan.AggCol{Table: j.LeftTable, Col: j.LeftCol})
		b.WriteString(" = ")
		ref(plan.AggCol{Table: j.RightTable, Col: j.RightCol})
	}
	for i, k := range st.OrderBy {
		if i == 0 {
			b.WriteString(" ORDER BY ")
		} else {
			b.WriteString(", ")
		}
		ref(k.Col)
		if k.Desc {
			b.WriteString(" DESC")
		}
	}
	if st.Limit != plan.NoLimit {
		b.WriteString(" LIMIT " + strconv.Itoa(st.Limit))
	}
	return b.String()
}

// FuzzParse holds Parse to what every later layer assumes of it: arbitrary
// bytes never panic, the same text parses the same way twice, and an
// accepted statement names only tables of its own FROM list and columns those
// tables have, with one filter list per table — the planner and executor
// index with these numbers unchecked. It also round-trips: render writes an
// accepted statement back as SQL, and that text parses to a statement
// reflect.DeepEqual to the first, nil lists and all — which holds the
// lexer's substring tokens and the parser's once-sized lists to what
// appending token by token and condition by condition built. The seed
// corpus (testdata/fuzz/FuzzParse, with a 7-table star join and a statement
// using every operator spelling, ORDER BY … DESC and LIMIT) runs with the
// ordinary tests; fuzz with
// go test -run '^$' -fuzz FuzzParse ./internal/sqlkit/sqlparse/.
func FuzzParse(f *testing.F) {
	cat := fuzzCatalog(f)
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
		text := render(cat, st)
		back, err := Parse(cat, text)
		if err != nil {
			t.Fatalf("%q rendered as %q, which does not parse: %v", sql, text, err)
		}
		if !reflect.DeepEqual(st, back) {
			t.Fatalf("%q rendered as %q, which parses differently:\n%+v\n%+v", sql, text, st, back)
		}
	})
}
