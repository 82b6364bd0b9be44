package exec

import "ml4db/internal/sqlkit/expr"

// column holds one layout offset's value for every row of a batch.
type column []int64

// batch is what operators exchange: n rows, column-major, one column per
// layout offset of the operator's output (ColOffset; len(cols) is the row
// width). An operator is handed a need mask over its offsets and fills only
// the marked columns; the rest stay nil — that is all column pruning is — so
// a consumer indexes only offsets it marked. Columns may be a table's own
// storage (an unfiltered in-memory scan's), shared by shards and concurrent
// executions: they are read-only everywhere in this package. Rows exist only
// in Result.Rows, built by Execute's root transposition (output.go).
type batch struct {
	n    int
	cols []column
}

// newBatch returns an n-row batch whose marked columns are allocated, zeroed
// and backed by one arena.
func newBatch(n int, need []bool) batch {
	marked := 0
	for _, m := range need {
		if m {
			marked++
		}
	}
	arena := make(column, n*marked)
	b := batch{n: n, cols: make([]column, len(need))}
	for o, m := range need {
		if m {
			b.cols[o], arena = arena[:n:n], arena[n:]
		}
	}
	return b
}

// reserve is newBatch(n, need) emptied: its marked columns have room for n
// rows in one arena, so appending up to n rows allocates nothing.
func reserve(n int, need []bool) batch {
	b := newBatch(n, need)
	for c := range b.cols {
		b.cols[c] = b.cols[c][:0]
	}
	return batch{cols: b.cols}
}

// gather returns the join rows (l row li[i], r row ri[i]) in the join layout
// — l's offsets, then r's — copying the marked columns once. With an empty r
// it is a selection: l's rows at positions li.
func gather(need []bool, l batch, li column, r batch, ri column) batch {
	out, lw := newBatch(len(li), need), len(l.cols)
	for o, dst := range out.cols {
		if !need[o] {
			continue
		}
		from, idx, at := l, li, o
		if o >= lw {
			from, idx, at = r, ri, o-lw
		}
		src := from.cols[at]
		for i, p := range idx {
			dst[i] = src[p]
		}
	}
	return out
}

// extend appends src's rows to b column by column, sizing each column for
// total rows on first use. The exchange concatenates shard outputs with it.
func (b *batch) extend(src batch, total int) {
	if b.cols == nil {
		b.cols = make([]column, len(src.cols))
	}
	for c, col := range src.cols {
		if b.cols[c] == nil && len(col) > 0 {
			b.cols[c] = make(column, 0, total)
		}
		b.cols[c] = append(b.cols[c], col...)
	}
	b.n += src.n
}

// chunkRows is the most rows a kernel takes at once: an in-memory scan's or a
// hash probe's chunk. A disk scan's chunk is one page, and no page has more slots.
const chunkRows = 1024

// ordinals[i] == i: the selection vector of a whole chunk, read-only.
var ordinals = func() (o [chunkRows]uint16) {
	for i := range o {
		o[i] = uint16(i)
	}
	return o
}()

// narrow is one filter's step of the scan kernel: of the chunk's ordinals in
// kept (ordinals[:n] at first: all n live rows), it writes to sel, which may
// be kept itself, those whose value in vals — f's column by ordinal — passes.
func narrow(sel, kept []uint16, vals []int64, f expr.Pred) []uint16 {
	sel, k := sel[:len(kept)], 0
	for _, o := range kept {
		if f.Eval(vals[o]) {
			sel[k] = o
			k++
		}
	}
	return sel[:k]
}
