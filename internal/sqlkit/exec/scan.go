package exec

import (
	"fmt"
	"math"

	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/plan"
	"ml4db/internal/storage"
)

// source is one table's rows — in memory columns of units rows, on disk a heap
// file of units pages behind its pool — and the scans' only access to them,
// through one kernel. A pool miss is charged as PageMiss work (the optimizer's
// PageRead term); every page is unpinned on every path, budget aborts included.
type source struct {
	cols  [][]int64
	tf    *storage.TableFile // nil in memory
	units int                // what a SeqScan shards
}

// newSource is the only reader of a table's Data, Disk and Virtual. A virtual
// table's provider materializes a snapshot of its current rows, transposed
// here into fresh columns, so a scan charges and filters it like any other.
func newSource(t *catalog.Table) source {
	switch {
	case t.Disk != nil:
		return source{tf: t.Disk, units: t.Disk.NumPages()}
	case t.Virtual == nil:
		return source{cols: t.Data, units: t.NumRows()}
	}
	snap := t.Virtual.VirtualRows()
	cols := make([][]int64, t.NumCols())
	for c := range cols {
		cols[c] = make([]int64, len(snap))
		for r, row := range snap {
			cols[c][r] = row[c]
		}
	}
	return source{cols: cols, units: len(snap)}
}

// chunk is some rows of a source: in memory rows [at, at+n) — of the table,
// or of an IndexScan's row ids; on disk the live slots of a pinned page, or
// an IndexScan's n = 1 row in slot at if it is live, its fetch unit charged.
type chunk struct {
	page            *storage.Page
	at, n           int
	missed, fetched bool
}

// kernel is SeqScan's and IndexScan's loop over a source's chunks: what to
// charge, filter and keep, an IndexScan's row ids, and buffers as long as a
// chunk in memory. A disk SeqScan tests first on each page in place, before
// the other filters: filters[skip]'s range, or if skip is -1 the build keys'
// range its hash join hands it (-2: none). done counts the rows it charged.
type kernel struct {
	src     source
	a       *acct
	unit    *int64
	filters []expr.Pred
	first   keyRange
	skip    int
	need    []bool
	out     *batch
	ids     []int32
	sel     []uint16
	vals    []int64
	done    int
}

// scan runs the kernel over units [lo, hi) of its source: rows or pages of
// the table, or row ids. On disk a row id's fetch unit is charged before its
// page is pinned, so a budget abort there touches no page, and a SeqScan
// skips, unpinned and uncharged, each page whose zone maps say no row of it
// passes the filters (mayPass), and reads the others through one run.
func (k *kernel) scan(lo, hi int) error {
	if k.src.tf == nil {
		for at := lo; at < hi; at += len(k.sel) {
			if err := k.run(chunk{at: at, n: min(len(k.sel), hi-at)}, nil, k.vals); err != nil {
				return err
			}
		}
		return nil
	}
	var slots [maxPageSlots]uint16 // a page's live slots
	var vals [maxPageSlots]int64   // one filter's column over them
	var may uint64                 // which of a SeqScan's next 64 pages may pass, a bit each
	run := k.src.tf.Pool().NewScanRun(k.src.tf.File())
	defer run.Release()
	for u := lo; u < hi; u++ {
		ch, pageNo, will := chunk{}, u, uint64(0) // will: the pages a SeqScan reads from u on
		if k.ids == nil {
			if (u-lo)%64 == 0 {
				may = k.mayPass(u) & (1<<min(hi-u, 64) - 1)
			}
			if will = may >> ((u - lo) % 64); will&1 == 0 {
				k.a.skipped++
				continue
			}
		} else {
			if err := k.a.charge(&k.a.ctr.IndexFetch, 1); err != nil {
				return err
			}
			spp := k.src.tf.File().SlotsPerPage()
			ch, pageNo = chunk{at: int(k.ids[u]) % spp, n: 1, fetched: true}, int(k.ids[u])/spp
		}
		if err := k.pin(pageNo, will, &run, ch, slots[:], vals[:]); err != nil {
			return err
		}
	}
	return nil
}

// mayPass returns which of the up to 64 pages from first on may hold a row
// that passes every interval filter, a bit per page (see
// storage.HeapFile.MayHold). NE filters skip no page.
func (k *kernel) mayPass(first int) uint64 {
	may, hf, b := ^uint64(0), k.src.tf.File(), k.first
	if k.skip > -2 {
		may &= hf.MayHold(first, int(b.col), b.lo, b.hi)
	}
	for i, f := range k.filters {
		if lo, hi, ok := f.Range(math.MinInt64, math.MaxInt64); ok && i != k.skip {
			may &= hf.MayHold(first, f.Col, lo, hi)
		}
	}
	return may
}

// pin runs the kernel on ch over page pageNo — a SeqScan reads it through run,
// an IndexScan fetches it — and unpins it: the handle stays on this frame.
func (k *kernel) pin(pageNo int, will uint64, run *storage.ScanRun, ch chunk, slots []uint16, vals []int64) error {
	if k.ids == nil {
		h, err := run.Read(pageNo, will)
		if err != nil {
			return err
		}
		defer h.Unpin()
		ch.page, ch.missed = h.Page(), h.Missed()
		return k.run(ch, slots, vals)
	}
	h, err := k.src.tf.Pool().Fetch(k.src.tf.File(), pageNo)
	if err != nil {
		return err
	}
	defer h.Unpin()
	ch.page, ch.missed = h.Page(), h.Missed()
	return k.run(ch, slots, vals)
}

// run is the kernel on one chunk (slots and vals buffer a page's slots and a
// column): filters narrow its rows' ordinals, a column each (a disk SeqScan's
// first in place); it is charged — the page's miss, a unit per row and a row
// per kept one, or a fetched row's row only; kept rows' marked columns, or a
// SeqScan's row numbers in memory (filtered only: out.at), are appended to out.
func (k *kernel) run(ch chunk, slots []uint16, vals []int64) error {
	var rows, kept []uint16 // ordinals in memory, slots on disk; the ordinals kept
	switch {
	case ch.page == nil:
		rows, kept = ordinals[:ch.n], ordinals[:ch.n]
	case k.skip > -2: // a SeqScan's page
		rows, kept = ch.page.Filter(slots, k.sel, int(k.first.col), k.first.lo, k.first.hi)
	case !ch.fetched:
		rows = ch.page.LiveSlots(slots[:0])
		kept = ordinals[:len(rows)]
	case ch.page.Used(ch.at): // else the index predates a delete
		rows, kept = append(slots[:0], uint16(ch.at)), ordinals[:1]
	}
	for i, f := range k.filters {
		if i != k.skip {
			kept = narrow(k.sel[:0], kept, k.column(vals[:0], ch, f.Col, rows), f)
		}
	}
	var err error
	done := ch.n // a fetched row's one unit, charged before its page was pinned
	if ch.missed {
		err = k.a.charge(&k.a.ctr.PageMiss, 1)
	}
	switch {
	case err != nil:
	case ch.fetched:
		err = k.a.chargeRows(int64(len(kept)))
	default:
		done, err = chargeChunk(k.a, k.unit, len(rows), nil, kept, 0)
	}
	if k.done += done; err != nil {
		return err
	}
	out := k.out
	out.n += len(kept)
	switch {
	case ch.page == nil && k.ids == nil:
		if len(k.filters) > 0 {
			at := out.at
			for _, o := range kept {
				at = append(at, int64(ch.at+int(o)))
			}
			out.at = at
		}
		return nil
	case len(kept) < len(rows):
		for j, o := range kept { // ordinals to rows, in place
			kept[j] = rows[o]
		}
		rows = kept
	}
	for c, m := range k.need {
		switch {
		case !m:
		case ch.page != nil && len(rows) == 1: // one slot: read in place
			out.cols[c] = append(out.cols[c], ch.page.Value(int(rows[0]), c))
		default:
			out.cols[c] = k.column(out.cols[c], ch, c, rows)
		}
	}
	return nil
}

// column appends column c of rows to dst, decoded from the page or gathered
// through the row ids — or, for a SeqScan in memory, returns the table's own.
func (k *kernel) column(dst []int64, ch chunk, c int, rows []uint16) []int64 {
	switch {
	case ch.page != nil:
		return ch.page.AppendColumn(dst, c, rows)
	case k.ids != nil:
		col, ids := k.src.cols[c], k.ids[ch.at:]
		for _, o := range rows {
			dst = append(dst, col[ids[o]])
		}
		return dst
	}
	return k.src.cols[c][ch.at : ch.at+ch.n]
}

// shard is a SeqScan shard's empty output over units [lo, hi): in memory room
// for a filtered scan's kept row numbers, on disk for the marked columns of
// the range's live tuples, the free-space map's exact count.
func (s *execState) shard(src source, lo, hi int, filtered bool, need []bool) batch {
	switch {
	case src.tf != nil:
		return s.newBatch(0, src.tf.File().LiveTuplesIn(lo, hi), need)
	case filtered:
		return batch{at: s.take(hi - lo)[:0]}
	}
	return batch{}
}

// seqScan charges every table row and keeps those passing the filters, a
// chunk at a time — on disk those of the pages the zone maps do not skip,
// under one more filter if it is a hash join's probe side (execState.probe).
// On disk it reads around the pool (storage.ScanRun), so serial and
// partitioned scans see the same misses (docs/EXECUTOR.md).
func (s *execState) seqScan(n *plan.Node, ord int, need []bool) (batch, error) {
	src := newSource(s.e.Cat.Table(n.TableID))
	before := s.acct
	out, err := s.ranged(src.units, n.Partitions, func(a *acct, _, lo, hi int) (batch, error) {
		out := s.shard(src, lo, hi, len(n.Filters) > 0, need)
		var sel [chunkRows]uint16
		k := &kernel{src: src, a: a, unit: &a.ctr.ScanTuples, filters: n.Filters, skip: -2, need: need, out: &out, sel: sel[:]}
		if ord != 0 && int32(ord) == s.probe.at { // what each page tests in place (see kernel)
			k.first, k.skip = s.probe, -1
		}
		for i, f := range n.Filters {
			if l, h, ok := f.Range(math.MinInt64, math.MaxInt64); ok && src.tf != nil && k.skip == -2 {
				k.first, k.skip = keyRange{lo: l, hi: h, col: int32(f.Col)}, i
			}
		}
		err := k.scan(lo, hi)
		return out, err
	})
	act := &s.res.Actuals[ord] // on aborts too: the rows read, the misses charged, the pages skipped
	act.Fetched, act.PageMisses = s.ctr.ScanTuples-before.ctr.ScanTuples, s.ctr.PageMiss-before.ctr.PageMiss
	act.PagesSkipped = s.skipped - before.skipped
	if err != nil {
		return batch{}, err
	}
	if src.tf == nil { // each marked column is the table's own: nothing is copied
		out.cols = s.header(len(need))
		for c, m := range need {
			if m {
				out.cols[c] = src.cols[c]
			}
		}
	}
	return out, nil
}

// fetchRows caps an IndexScan's chunk in memory (a point lookup clears small
// buffers); maxPageSlots bounds a page's slots (a slot holds 8 bytes or more).
const fetchRows, maxPageSlots = 16, storage.PageSize / 8

// indexScan reads the rows matching the node's interval predicate on
// IndexCol through the secondary index — on disk a random page access per
// fetch — and keeps those passing the other filters, with room for all.
func (s *execState) indexScan(n *plan.Node, ord int, need []bool) (batch, error) {
	t := s.e.Cat.Table(n.TableID)
	ix := t.Index(n.IndexCol)
	if ix == nil {
		return batch{}, fmt.Errorf("exec: no index on column %d of %s", n.IndexCol, t.Name)
	}
	if ix.Hypothetical {
		return batch{}, fmt.Errorf("exec: index on column %d of %s is hypothetical (what-if only)", n.IndexCol, t.Name)
	}
	lo, hi, residual, ok := indexInterval(n)
	if !ok {
		return batch{}, fmt.Errorf("exec: IndexScan on %s has no interval predicate on c%d", t.Name, n.IndexCol)
	}
	// One probe costs a binary search over the index — all an empty
	// interval costs: RangeRows finds no ids for lo > hi.
	if err := s.charge(&s.ctr.IndexProbe, plan.ProbeSteps(ix.Len())); err != nil {
		return batch{}, err
	}
	ids, missBefore := ix.RangeRows(lo, hi), s.ctr.PageMiss
	out := s.newBatch(0, len(ids), need)
	var sel [fetchRows]uint16
	var vals [fetchRows]int64
	k := &kernel{src: newSource(t), a: &s.acct, unit: &s.ctr.IndexFetch, filters: residual, skip: -2, need: need, out: &out, ids: ids, sel: sel[:], vals: vals[:]}
	err := k.scan(0, len(ids))
	act := &s.res.Actuals[ord] // on aborts too: the fetches made, the misses charged
	act.Fetched, act.PageMisses = int64(k.done), s.ctr.PageMiss-missBefore
	if err != nil {
		return batch{}, err
	}
	return out, nil
}

// indexInterval extracts the interval on n.IndexCol from the node's filters
// (intersecting multiple interval predicates on that column; lo > hi when
// they select nothing) and returns the remaining predicates. Open sides span
// the whole int64 domain: the index says which values exist, and statistics
// may be older than the rows.
func indexInterval(n *plan.Node) (lo, hi int64, residual []expr.Pred, ok bool) {
	lo, hi = math.MinInt64, math.MaxInt64
	for _, f := range n.Filters {
		if f.Col == n.IndexCol {
			if l, h, isInterval := f.Range(math.MinInt64, math.MaxInt64); isInterval {
				lo, hi = max(lo, l), min(hi, h)
				ok = true
				continue
			}
		}
		residual = append(residual, f)
	}
	return lo, hi, residual, ok
}
