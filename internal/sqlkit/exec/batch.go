package exec

import (
	"math"
	"math/bits"
	"sync"

	"ml4db/internal/sqlkit/expr"
)

// column holds one layout offset's value for every row of a batch.
type column []int64

// batch is what operators exchange: n rows, column-major, one column per
// layout offset of the operator's output (ColOffset; len(cols) is the row
// width). An operator is handed a need mask over its offsets and fills only
// the marked columns; the rest stay nil — that is all column pruning is — so
// a consumer indexes only offsets it marked. A column is a slab the execution
// took (see slabs), written only by the operator that took it, or a table's
// own storage (an in-memory SeqScan's), shared by shards and concurrent
// executions and read-only everywhere in this package. Row i is row i of
// every column, or row at[i] if the selection vector at is set: a filtered
// in-memory SeqScan's kept row numbers, ascending. Consumers resolve it
// through dense or gather, or in present. Rows exist only in Result.Rows,
// built by Execute's root transposition (output.go).
type batch struct {
	n    int
	cols []column
	at   column
}

// dense returns b's column c with row i at position i: the column itself, or
// its rows picked through at into a slab.
func (s *execState) dense(b batch, c int) column {
	if b.at == nil {
		return b.cols[c][:b.n]
	}
	return pick(s.take(b.n), b.cols[c], b.at)
}

// pick writes src[idx[i]] to dst[i] for every i and returns dst, which may be
// idx itself.
func pick(dst, src, idx column) column {
	for i, p := range idx {
		dst[i] = src[p]
	}
	return dst
}

// slabs is an Executor's free list of intermediate columns, a stack per
// power-of-two length behind one mutex its executions share. An execution
// takes every column it builds here and gives them all back when Execute
// returns. Unlike a sync.Pool, which the GC empties, it is deterministic, so
// allocation counts repeat. It keeps at most maxSlabBytes; the rest go to the GC.
type slabs struct {
	mu    sync.Mutex
	free  [48][]column
	bytes int
}

const maxSlabBytes = 16 << 20

// take returns n values of a slab from the free list, or of a new one when the
// list has none of n's size class. A reused slab is not zeroed: every taker
// writes a position before reading it.
func (s *execState) take(n int) column {
	if n == 0 {
		return nil
	}
	k, l := bits.Len(uint(n-1)), &s.e.slabs
	l.mu.Lock()
	var c column
	if f := l.free[k]; len(f) > 0 {
		c, f[len(f)-1], l.free[k] = f[len(f)-1], nil, f[:len(f)-1]
		l.bytes -= 8 * cap(c)
	} else {
		c = make(column, 1<<k)
	}
	s.a.taken = append(s.a.taken, c)
	l.mu.Unlock()
	return c[:n]
}

// header cuts k column headers under the slab list's lock: shards cut theirs.
func (s *execState) header(k int) []column {
	s.e.slabs.mu.Lock()
	defer s.e.slabs.mu.Unlock()
	return s.a.cols.cut(k)
}

// release gives back every slab the execution took, once present has copied
// the surviving rows out, and drops its cuts: the arena must hold no slab.
func (s *execState) release() {
	l, a := &s.e.slabs, s.a
	l.mu.Lock()
	for _, c := range a.taken {
		if k := bits.Len(uint(cap(c) - 1)); l.bytes+8*cap(c) <= maxSlabBytes {
			l.free[k], l.bytes = append(l.free[k], c), l.bytes+8*cap(c)
		}
	}
	l.mu.Unlock()
	clear(a.taken)
	a.taken = a.taken[:0]
	a.cols.reset()
	a.bools.reset()
	a.keys.reset()
	a.ints.reset()
}

// positions returns a join shard's empty (left, right) position vectors with
// room for its share of est, the node's EstRows, over in of the operator's n
// input rows, capped at in; a NaN, infinite or negative estimate is room for
// none. Past the room, push grows them.
func (s *execState) positions(est float64, in, n int) (li, ri column) {
	room := 0
	if est > 0 && !math.IsInf(est, 1) {
		room = int(min(est*float64(in)/float64(max(n, 1)), float64(in)))
	}
	return s.pair(room)
}

// pair cuts two empty position vectors of equal capacity, k or more, from one
// slab.
func (s *execState) pair(k int) (li, ri column) {
	c := s.take(2 * k)
	h := cap(c) / 2
	return c[:0:h], c[h : h : 2*h]
}

// push appends the pair (l, r) to a join's position vectors. Full, they first
// move to a slab twice as large (64 positions each at least): a position
// vector never grows by append, and the outgrown slab stays taken until
// release.
func (s *execState) push(li, ri column, l, r int64) (column, column) {
	if len(li) == cap(li) {
		li, ri = s.grow(li, ri)
	}
	return append(li, l), append(ri, r)
}

func (s *execState) grow(li, ri column) (column, column) {
	nl, nr := s.pair(max(2*cap(li), 64))
	return append(nl, li...), append(nr, ri...)
}

// newBatch returns an n-row batch whose marked columns have room for room ≥ n
// rows, cut from one slab: appending up to room rows allocates nothing.
func (s *execState) newBatch(n, room int, need []bool) batch {
	marked := 0
	for _, m := range need {
		if m {
			marked++
		}
	}
	arena := s.take(room * marked)
	b := batch{n: n, cols: s.header(len(need))}
	for o, m := range need {
		if m {
			b.cols[o], arena = arena[:n:room], arena[room:]
		}
	}
	return b
}

// gather returns the join rows (l row li[i], r row ri[i]) in the join layout
// — l's offsets, then r's — copying the marked columns once. It first maps the
// positions through each side's selection vector, in place: li and ri are the
// join's own.
func (s *execState) gather(need []bool, l batch, li column, r batch, ri column) batch {
	if l.at != nil {
		pick(li, l.at, li)
	}
	if r.at != nil {
		pick(ri, r.at, ri)
	}
	out, lw := s.newBatch(len(li), len(li), need), len(l.cols)
	for o, dst := range out.cols {
		switch {
		case !need[o]:
		case o < lw:
			pick(dst, l.cols[o], li)
		default:
			pick(dst, r.cols[o-lw], ri)
		}
	}
	return out
}

// extend appends src's rows to b column by column, selection vector
// included, taking a slab for total rows on a column's first use. The
// exchange concatenates shard outputs with it.
func (s *execState) extend(b *batch, src batch, total int) {
	concat := func(dst, src column) column {
		if dst == nil && len(src) > 0 {
			dst = s.take(total)[:0]
		}
		return append(dst, src...)
	}
	if b.cols == nil && src.cols != nil {
		b.cols = s.header(len(src.cols))
	}
	for c, col := range src.cols {
		b.cols[c] = concat(b.cols[c], col)
	}
	b.at, b.n = concat(b.at, src.at), b.n+src.n
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
// An interval predicate is inRange's unsigned test, over the whole chunk's
// column contiguously while kept is all of it (and sel holds a whole chunk);
// NE is Eval's.
func narrow(sel, kept []uint16, vals []int64, f expr.Pred) []uint16 {
	lo, hi, interval := f.Range(math.MinInt64, math.MaxInt64)
	ulo, span := uint64(lo), uint64(hi)-uint64(lo)
	sel, k := sel[:len(kept)], 0
	switch {
	case !interval:
		for _, o := range kept {
			if f.Eval(vals[o]) {
				sel[k] = o
				k++
			}
		}
	case lo > hi: // empty: its span would wrap and keep every row
	case len(kept) == len(vals) && cap(sel) >= chunkRows:
		k = inRange((*[chunkRows]uint16)(sel[:chunkRows]), vals, ulo, span)
	default:
		for _, o := range kept {
			sel[k] = o
			k += within(vals[o], ulo, span)
		}
	}
	return sel[:k]
}

// within is 1 if key lies in [lo, lo+span] and 0 if not, without a branch:
// key - lo ≤ span unsigned, exact over all of int64.
func within(key int64, lo, span uint64) int {
	_, borrow := bits.Sub64(span, uint64(key)-lo, 0)
	return int(borrow ^ 1)
}
