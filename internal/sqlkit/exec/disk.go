package exec

import (
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/plan"
	"ml4db/internal/storage"
)

// This file holds the disk-table scan paths: the same operators as exec.go,
// but iterating heap pages through the table's buffer pool. Pool misses are
// charged as PageMiss work units — the executor-side ground truth for the
// optimizer's PageRead cost term — and every pinned page is released on
// every path, including budget aborts (pinPage). No tuple is decoded whole: a
// scan's chunk is one pinned page, whose filters' columns and then the kept
// slots' marked columns are decoded at one stride each (Page.AppendColumn);
// an index fetch reads its row's columns in place (Page.Value).

// seqScanDisk scans a disk-backed table page by page, sharded by contiguous
// page ranges. A serial scan fetches through the pool proper; a partitioned
// one uses storage.Pool.FetchScan — the bypass path that pins resident pages
// without touching replacement state and reads non-resident pages privately
// without inserting them — so the pool's contents, tick, and eviction
// decisions are independent of shard interleaving, and a re-run shard sees
// the misses its first run saw. Miss charges equal the serial scan's whenever
// the pool's resident set at scan start matches (always true for a cold
// table; see docs/EXECUTOR.md for the warm-pool caveat).
func (s *execState) seqScanDisk(n *plan.Node, ord int, t *catalog.Table, need []bool) (batch, error) {
	missBefore := s.ctr.PageMiss
	out, err := s.ranged(t.Disk.NumPages(), n.Partitions, func(a *acct, _, lo, hi int) (batch, error) {
		size := 0 // a filtered shard grows by append: no estimate sizes memory
		if len(n.Filters) == 0 {
			size = t.Disk.File().LiveTuplesIn(lo, hi) // every live tuple is a row
		}
		out := reserve(size, need)
		var live, sel [chunkRows]uint16 // a page's live slots, and the kept ones
		var vals [chunkRows]int64       // one filter's column over the live slots
		scan := func(p *storage.Page) error {
			slots := p.LiveSlots(live[:0])
			kept := ordinals[:len(slots)]
			for _, f := range n.Filters {
				kept = narrow(sel[:0], kept, p.AppendColumn(vals[:0], f.Col, slots), f)
			}
			if err := chargeChunk(a, &a.ctr.ScanTuples, len(slots), nil, kept, 0); err != nil {
				return err
			}
			if len(n.Filters) > 0 {
				for j, o := range kept { // ordinals to slots, in place: a filter wrote kept to sel
					kept[j] = slots[o]
				}
				slots = kept
			}
			for c, m := range need {
				if m {
					out.cols[c] = p.AppendColumn(out.cols[c], c, slots)
				}
			}
			out.n += len(slots)
			return nil
		}
		for pageNo := lo; pageNo < hi; pageNo++ {
			if err := pinPage(a, t.Disk, pageNo, n.Partitions > 1, scan); err != nil {
				return batch{}, err
			}
		}
		return out, nil
	})
	s.res.Actuals[ord].PageMisses = s.ctr.PageMiss - missBefore // on aborts too
	return out, err
}

// indexScanDisk fetches the index's matching heap rows through the pool —
// random page access, the classic reason index scans on disk pay more per
// row than sequential ones. Like the in-memory path it has room for every
// fetched row up front.
func (s *execState) indexScanDisk(ord int, t *catalog.Table, ix *catalog.SecondaryIndex, lo, hi int64, residual []expr.Pred, need []bool) (batch, error) {
	ids := ix.RangeRows(lo, hi)
	out := reserve(len(ids), need)
	act, missBefore := &s.res.Actuals[ord], s.ctr.PageMiss
	defer func() { act.PageMisses = s.ctr.PageMiss - missBefore }() // on aborts too
	spp := int64(t.Disk.File().SlotsPerPage())
	for _, r := range ids {
		if err := s.charge(&s.ctr.IndexFetch, 1); err != nil {
			return batch{}, err
		}
		act.Fetched++ // counted as they happen: an abort keeps them
		slot := int(int64(r) % spp)
		err := pinPage(&s.acct, t.Disk, int(int64(r)/spp), false, func(p *storage.Page) error {
			if !p.Used(slot) || !pagePasses(residual, p, slot) {
				return nil // a deleted slot (the index predates the delete) or a residual miss
			}
			if err := s.chargeRows(1); err != nil {
				return err
			}
			out.appendSlot(p, slot, need)
			return nil
		})
		if err != nil {
			return batch{}, err
		}
	}
	return out, nil
}

// pinPage pins pageNo of tf — through FetchScan when bypass is set — charges
// a miss to a, runs fn on the page, and unpins on every path, budget aborts
// included (the pin discipline the spanend analyzer enforces). The pool is
// called directly, not through a func value, so the handle stays on this
// frame and a fetch allocates nothing.
func pinPage(a *acct, tf *storage.TableFile, pageNo int, bypass bool, fn func(*storage.Page) error) error {
	pool, hf := tf.Pool(), tf.File()
	if bypass {
		h, err := pool.FetchScan(hf, pageNo)
		if err != nil {
			return err
		}
		defer h.Unpin()
		return onPage(a, h.Missed(), h.Page(), fn)
	}
	h, err := pool.Fetch(hf, pageNo)
	if err != nil {
		return err
	}
	defer h.Unpin()
	return onPage(a, h.Missed(), h.Page(), fn)
}

// onPage charges a pinned page's miss, then runs fn on it.
func onPage(a *acct, missed bool, p *storage.Page, fn func(*storage.Page) error) error {
	if missed {
		if err := a.charge(&a.ctr.PageMiss, 1); err != nil {
			return err
		}
	}
	return fn(p)
}

// pagePasses is tablePasses for a live slot of a pinned page, reading only the
// filters' columns.
func pagePasses(filters []expr.Pred, p *storage.Page, slot int) bool {
	for _, f := range filters {
		if !f.Eval(p.Value(slot, f.Col)) {
			return false
		}
	}
	return true
}

// appendSlot adds a live slot of a pinned page to b, copying its marked
// columns straight from the page.
func (b *batch) appendSlot(p *storage.Page, slot int, need []bool) {
	for c, m := range need {
		if m {
			b.cols[c] = append(b.cols[c], p.Value(slot, c))
		}
	}
	b.n++
}
