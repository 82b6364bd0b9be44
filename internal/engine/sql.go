package engine

import (
	"fmt"
	"sort"

	"ml4db/internal/sqlkit/exec"
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
// and the presentation clauses (projection, ORDER BY, LIMIT) are applied to
// the executed rows. ORDER BY sorts are stable over the executor's
// deterministic output order, so results replay byte-identically.
func (s *Session) Query(sql string) (*RowsResult, error) {
	st, err := sqlparse.Parse(s.eng.cat, sql)
	if err != nil {
		return nil, err
	}
	res, err := s.Run(st.Query)
	if err != nil {
		return nil, err
	}

	// The executor owns the row layout (the optimizer reorders join leaves),
	// and a view rewrite may have folded several FROM tables into one wider
	// view table: route each FROM-relative column through the rewrite's
	// position map, then ask the executor where the plan's rows hold it.
	offsetOf := func(c sqlparse.ColRef) (int, error) {
		pos, col := c.TablePos, c.Col
		if res.PosMap != nil {
			pm := res.PosMap[c.TablePos]
			pos, col = pm.Pos, pm.ColShift+c.Col
		}
		off, ok := exec.ColOffset(s.eng.cat, res.Plan, pos, col)
		if !ok {
			return 0, fmt.Errorf("engine: query table position %d missing from executed plan", c.TablePos)
		}
		return off, nil
	}

	rows := res.Rows
	if len(st.OrderBy) > 0 {
		keys := make([]int, len(st.OrderBy))
		for i, k := range st.OrderBy {
			if keys[i], err = offsetOf(k.Col); err != nil {
				return nil, err
			}
		}
		sorted := make([][]int64, len(rows))
		copy(sorted, rows)
		sort.SliceStable(sorted, func(i, j int) bool {
			for n, off := range keys {
				a, b := sorted[i][off], sorted[j][off]
				if a == b {
					continue
				}
				if st.OrderBy[n].Desc {
					return a > b
				}
				return a < b
			}
			return false
		})
		rows = sorted
	}
	if st.Limit >= 0 && len(rows) > st.Limit {
		rows = rows[:st.Limit]
	}

	// SELECT * projects every column in FROM order; an explicit list
	// projects in list order.
	cols := st.Cols
	if cols == nil {
		for pos := range st.Query.Tables {
			t := s.eng.cat.Table(st.Query.Tables[pos])
			for c := 0; c < t.NumCols(); c++ {
				cols = append(cols, sqlparse.ColRef{TablePos: pos, Col: c})
			}
		}
	}
	offsets := make([]int, len(cols))
	names := make([]string, len(cols))
	for i, c := range cols {
		if offsets[i], err = offsetOf(c); err != nil {
			return nil, err
		}
		names[i] = s.eng.cat.Table(st.Query.Tables[c.TablePos]).Columns[c.Col].Name
	}
	out := make([][]int64, len(rows))
	for i, r := range rows {
		row := make([]int64, len(offsets))
		for j, o := range offsets {
			row[j] = r[o]
		}
		out[i] = row
	}
	return &RowsResult{Columns: names, Rows: out, Exec: res}, nil
}
