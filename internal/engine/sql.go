package engine

import (
	"ml4db/internal/sqlkit/plan"
	"ml4db/internal/sqlkit/sqlparse"
)

// RowsResult is the outcome of a SQL query: the projected, ordered, limited
// output rows with their column names, plus the underlying engine result
// (plan, counters, cache/fallback flags) for callers that want it.
type RowsResult struct {
	Columns []string
	Rows    [][]int64
	Exec    *Result
}

// Query parses and runs one SELECT statement (see sqlparse for the
// grammar). The SPJ core goes through the normal planning/execution path —
// plan cache, budgets, estimator fallback, workload recording included —
// and the presentation clauses (projection, ORDER BY, LIMIT) travel with it
// as the execution's requested output: the executor orders, truncates and
// projects its columns before it builds a row, so Rows are Exec.Rows. This
// front end only names the columns and labels them. ORDER BY is stable over
// the executor's deterministic order, so results replay byte-identically.
func (s *Session) Query(sql string) (*RowsResult, error) {
	st, err := sqlparse.Parse(s.eng.cat, sql)
	if err != nil {
		return nil, err
	}
	cat, tables := s.eng.cat, st.Query.Tables
	out := &st.Output // the statement is this call's own: expanding * in place copies nothing
	if out.Cols == nil {
		// SELECT * is every column in FROM order.
		total := 0
		for _, id := range tables {
			total += cat.Table(id).NumCols()
		}
		out.Cols = make([]plan.AggCol, 0, total)
		for pos, id := range tables {
			for c := 0; c < cat.Table(id).NumCols(); c++ {
				out.Cols = append(out.Cols, plan.AggCol{Table: pos, Col: c})
			}
		}
	}
	names := make([]string, len(out.Cols))
	for i, c := range out.Cols {
		names[i] = cat.Table(tables[c.Table]).Columns[c.Col].Name
	}
	res, err := s.run(st.Query, out)
	if err != nil {
		return nil, err
	}
	return &RowsResult{Columns: names, Rows: res.Rows, Exec: res}, nil
}
