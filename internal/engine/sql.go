package engine

import (
	"ml4db/internal/sqlkit/plan"
	"ml4db/internal/sqlkit/sqlparse"
)

// RowsResult is the outcome of a SQL query: the projected, ordered, limited
// output rows with their column names, plus the underlying engine result
// (plan, counters, cache/fallback flags) for callers that want it. It, its
// Rows and its Exec — Work, Counters, Actuals and Explain included — belong
// to the session that ran the query and are valid until that session's next
// Query, which overwrites them in place, like database/sql's Rows: copy what
// must outlive it. Appending to Rows or to a row reallocates, so it never
// writes into another row or a later result.
type RowsResult struct {
	// Columns names the output columns. The slice is the statement memo's,
	// shared by every call that sends the same text: read-only.
	Columns []string
	Rows    [][]int64
	Exec    *Result
}

// stmtKey is the statement memo's key: the text as sent, and the name of the
// hint set it was sent under, which the statement's shape carries.
type stmtKey struct {
	hint, sql string
}

// stmt is everything Session.Query derives from a statement's text before
// planning. Once in the memo it is shared by every session sending the text,
// so it is never written again.
type stmt struct {
	*sqlparse.Stmt          // Cols is never nil: SELECT * is expanded
	names          []string // the output column names
	shape          string   // queryShape(Query, hint)
}

// Query parses and runs one SELECT statement (see sqlparse for the
// grammar). The SPJ core goes through the normal planning/execution path —
// plan cache, budgets, estimator fallback, workload recording included —
// and the presentation clauses (projection, ORDER BY, LIMIT) travel with it
// as the execution's requested output: the executor orders, truncates and
// projects its columns before it builds a row, so Rows are Exec.Rows. This
// front end only names the columns and labels them. ORDER BY is stable over
// the executor's deterministic order, so results replay byte-identically.
//
// A text sent again under the same hint-set name is neither lexed nor parsed
// nor re-shaped: the engine's statement memo returns what the first call
// derived (see Engine.statement). The result is the session's own, valid
// until its next Query (see RowsResult).
func (s *Session) Query(sql string) (*RowsResult, error) {
	e := s.eng
	if err := e.admit(); err != nil {
		return nil, err
	}
	defer e.release()
	st, err := e.statement(s.Hint.Name, sql)
	if err != nil {
		return nil, err
	}
	res, err := e.run(st.Query, st.shape, &st.Output, &s.last, s.Hint, s.Budget, s.Analyze)
	if err != nil {
		return nil, err
	}
	s.last.out = RowsResult{Columns: st.names, Rows: res.Rows, Exec: res}
	return &s.last.out, nil
}

// statement returns the memoised statement for sql under the hint name,
// parsing and inserting it on a miss; a text that fails to parse is not
// stored, so it is parsed again on every call. The memo is dropped on every
// epoch move (update), which every catalog change must cause; and since it
// is only read and filled by admitted queries, no fill can straddle a change
// made under Quiesce.
func (e *Engine) statement(hint, sql string) (*stmt, error) {
	key := stmtKey{hint: hint, sql: sql}
	if st, ok := e.stmts.Get(key); ok {
		return st, nil
	}
	parsed, err := sqlparse.Parse(e.cat, sql)
	if err != nil {
		return nil, err
	}
	cat, tables := e.cat, parsed.Query.Tables
	out := &parsed.Output
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
	st := &stmt{Stmt: parsed, names: make([]string, len(out.Cols)), shape: queryShape(parsed.Query, hint)}
	for i, c := range out.Cols {
		st.names[i] = cat.Table(tables[c.Table]).Columns[c.Col].Name
	}
	e.stmts.Put(key, st)
	return st, nil
}
