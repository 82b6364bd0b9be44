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
// every path, including budget aborts, by scoping each page's work in a
// function with a deferred Unpin.

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
	tf := t.Disk
	missBefore := s.ctr.PageMiss
	out, err := s.ranged(tf.NumPages(), n.Partitions, func(a *acct, _, lo, hi int) (batch, error) {
		row := make([]int64, t.NumCols())
		out := batch{cols: make([]column, len(need))}
		for pageNo := lo; pageNo < hi; pageNo++ {
			if err := scanDiskPage(a, n, tf, pageNo, row, need, &out); err != nil {
				return batch{}, err
			}
		}
		return out, nil
	})
	s.res.Actuals[ord].PageMisses = s.ctr.PageMiss - missBefore // on aborts too
	return out, err
}

// scanDiskPage pins one page, decodes each tuple into the shard's reused row
// buffer, appends the marked columns of the matching ones to out, and unpins
// on every path — including budget aborts — via defer (the pin discipline the
// spanend analyzer enforces).
func scanDiskPage(a *acct, n *plan.Node, tf *storage.TableFile, pageNo int, row []int64, need []bool, out *batch) error {
	fetch := tf.FetchPage
	if n.Partitions > 1 {
		fetch = tf.FetchPageForScan
	}
	h, err := fetch(pageNo)
	if err != nil {
		return err
	}
	defer h.Unpin()
	if h.Missed() {
		if err := a.charge(&a.ctr.PageMiss, 1); err != nil {
			return err
		}
	}
	p := h.Page()
	for slot := 0; slot < p.NumSlots(); slot++ {
		if !p.ReadTuple(slot, row) {
			continue
		}
		if err := a.charge(&a.ctr.ScanTuples, 1); err != nil {
			return err
		}
		if !rowPasses(n.Filters, row) {
			continue
		}
		if err := a.chargeRows(1); err != nil {
			return err
		}
		out.appendRow(row, need)
	}
	return nil
}

// indexScanDisk fetches the index's matching heap rows through the pool —
// random page access, the classic reason index scans on disk pay more per
// row than sequential ones.
func (s *execState) indexScanDisk(ord int, t *catalog.Table, ix *catalog.SecondaryIndex, lo, hi int64, residual []expr.Pred, need []bool) (batch, error) {
	out := batch{cols: make([]column, len(need))}
	act := &s.res.Actuals[ord] // counted as they happen: an abort keeps them
	for _, r := range ix.RangeRows(lo, hi) {
		if err := s.charge(&s.ctr.IndexFetch, 1); err != nil {
			return batch{}, err
		}
		act.Fetched++
		row, ok, missed, err := t.Disk.ReadRow(int64(r))
		if err != nil {
			return batch{}, err
		}
		if missed {
			act.PageMisses++
			if err := s.charge(&s.ctr.PageMiss, 1); err != nil {
				return batch{}, err
			}
		}
		if !ok || !rowPasses(residual, row) {
			continue // a deleted slot (the index predates the delete) or a residual miss
		}
		if err := s.chargeRows(1); err != nil {
			return batch{}, err
		}
		out.appendRow(row, need)
	}
	return out, nil
}
