package exec

import (
	"cmp"
	"fmt"
	"slices"

	"ml4db/internal/sqlkit/plan"
)

// resolveOutput turns the requested output into root's layout: need marks the
// offsets the select list and the ORDER BY keys read — the marks run pushes
// down the plan — and offs lists the select list's offsets followed by the
// keys'. A nil output selects every offset in order.
func (s *execState) resolveOutput(root *plan.Node, out *plan.Output) (need []bool, offs []int, err error) {
	need = s.a.bools.cut(width(s.e.Cat, root))
	if out == nil {
		offs = s.a.ints.cut(len(need))
		for o := range offs {
			need[o], offs[o] = true, o
		}
		return need, offs, nil
	}
	offs = s.a.ints.cut(len(out.Cols) + len(out.OrderBy))
	for i := range offs {
		var c plan.AggCol
		if i < len(out.Cols) {
			c = out.Cols[i]
		} else {
			c = out.OrderBy[i-len(out.Cols)].Col
		}
		off, ok := ColOffset(s.e.Cat, root, c.Table, c.Col)
		if !ok {
			return nil, nil, fmt.Errorf("exec: output names t%d, which %s does not scan", c.Table, root.Head())
		}
		need[off], offs[i] = true, off
	}
	return need, offs, nil
}

// present applies the output to the root operator's batch: it orders the row
// positions, keeps the first Limit, and only then transposes the surviving
// rows × selected columns into the arena's rows, cut into full-capacity rows
// under a header capped at keep — the only place the executor builds a row;
// none aliases another or a table, and an append reallocates. Rows are read
// through the batch's selection vector, if it has one.
func (s *execState) present(b batch, out *plan.Output, offs []int) [][]int64 {
	w, keep := len(offs), b.n
	order := b.at // nil: executor order, dense
	if out != nil {
		w = len(out.Cols)
		if out.Limit >= 0 && out.Limit < keep {
			keep = out.Limit
		}
		if len(out.OrderBy) > 0 && keep > 0 {
			order = s.firstRows(b, out.OrderBy, offs[w:], keep)
		}
	}
	flat, rows := s.a.flat, s.a.rows
	if rows == nil || cap(flat) < keep*w || cap(rows) < keep {
		flat, rows = make([]int64, max(keep*w, cap(flat))), make([][]int64, max(keep, cap(rows)))
		if 8*len(flat)+24*len(rows) <= maxSlabBytes {
			s.a.flat, s.a.rows = flat, rows
		}
	}
	for i := range keep {
		p := i
		if order != nil {
			p = int(order[i])
		}
		row := flat[i*w : (i+1)*w : (i+1)*w]
		for j, o := range offs[:w] {
			row[j] = b.cols[o][p]
		}
		rows[i] = row
	}
	return rows[:keep:keep]
}

// firstRows returns, in order, the positions in b's columns of the first keep
// rows of b under the ORDER BY keys (whose columns sit at offs). Ties on every
// key break toward the lower position — the lower row, as the selection
// vector ascends — so the answer is exactly a stable sort followed by
// truncation. With keep < b.n only a heap of keep positions is held, in a
// slab, worst row on top, and the final sort touches only those: order is a
// strict total order, so any sort returns the same positions.
func (s *execState) firstRows(b batch, keys []plan.OrderKey, offs []int, keep int) column {
	order := func(p, q int64) int { // < 0: row p comes before row q
		for i, o := range offs {
			if x, y := b.cols[o][p], b.cols[o][q]; x != y {
				if (x < y) != keys[i].Desc {
					return -1
				}
				return 1
			}
		}
		return cmp.Compare(p, q)
	}
	row := func(i int) int64 {
		if b.at != nil {
			return b.at[i]
		}
		return int64(i)
	}
	h := s.take(keep)
	for i := range h {
		h[i] = row(i)
	}
	if keep < b.n {
		sift := func(i int) {
			for {
				c := 2*i + 1
				if c >= keep {
					return
				}
				if c+1 < keep && order(h[c], h[c+1]) < 0 {
					c++
				}
				if order(h[i], h[c]) >= 0 {
					return
				}
				h[i], h[c] = h[c], h[i]
				i = c
			}
		}
		for i := keep/2 - 1; i >= 0; i-- {
			sift(i)
		}
		for i := keep; i < b.n; i++ {
			if p := row(i); order(p, h[0]) < 0 {
				h[0] = p
				sift(0)
			}
		}
	}
	slices.SortFunc(h, order)
	return h
}
