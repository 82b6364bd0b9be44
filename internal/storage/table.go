package storage

import (
	"fmt"
)

// TableFile wraps a HeapFile with row-level operations for a disk-backed
// table: append, delete, read-by-rowid, and pooled scans. A row id encodes
// (page, slot) as pageNo*SlotsPerPage + slot, so lookups need no separate
// rowid directory. All page access goes through the pool the table was
// opened with.
type TableFile struct {
	hf   *HeapFile
	pool *Pool
}

// CreateTableFile creates (or truncates) a disk table at path with
// ncols-wide rows, cached through pool.
func CreateTableFile(path string, ncols int, pool *Pool) (*TableFile, error) {
	hf, err := CreateHeapFile(path, ncols)
	if err != nil {
		return nil, err
	}
	return &TableFile{hf: hf, pool: pool}, nil
}

// OpenTableFile reopens a disk table, verifying every page checksum and
// rebuilding the free-space map (see OpenHeapFile).
func OpenTableFile(path string, ncols int, pool *Pool) (*TableFile, error) {
	hf, err := OpenHeapFile(path, ncols)
	if err != nil {
		return nil, err
	}
	return &TableFile{hf: hf, pool: pool}, nil
}

// File returns the underlying heap file.
func (tf *TableFile) File() *HeapFile { return tf.hf }

// Pool returns the buffer pool the table reads through.
func (tf *TableFile) Pool() *Pool { return tf.pool }

// NumPages returns the page count.
func (tf *TableFile) NumPages() int { return tf.hf.NumPages() }

// NumRows returns the live row count (from the free-space map).
func (tf *TableFile) NumRows() int { return tf.hf.LiveTuples() }

// AppendRow inserts row into the first page with free space (allocating a
// new page when the file is full) and returns its row id.
func (tf *TableFile) AppendRow(row []int64) (rowID int64, err error) {
	if len(row) != tf.hf.NCols() {
		return 0, fmt.Errorf("storage: row width %d != %d columns of %s", len(row), tf.hf.NCols(), tf.hf.Path())
	}
	pageNo, ok := tf.hf.FirstFree()
	if !ok {
		pageNo, err = tf.hf.AllocPage()
		if err != nil {
			return 0, err
		}
	}
	h, err := tf.pool.Fetch(tf.hf, pageNo)
	if err != nil {
		return 0, err
	}
	defer h.Unpin()
	slot, ok := h.Page().Insert(row)
	if !ok {
		return 0, fmt.Errorf("storage: free-space map said page %d of %s had space but insert failed", pageNo, tf.hf.Path())
	}
	h.SetDirty()
	tf.hf.noteInsert(pageNo, row)
	return int64(pageNo)*int64(tf.hf.SlotsPerPage()) + int64(slot), nil
}

// DeleteRow clears the slot addressed by rowID, returning false when it
// was already empty.
func (tf *TableFile) DeleteRow(rowID int64) (bool, error) {
	pageNo, slot, err := tf.split(rowID)
	if err != nil {
		return false, err
	}
	h, err := tf.pool.Fetch(tf.hf, pageNo)
	if err != nil {
		return false, err
	}
	defer h.Unpin()
	if !h.Page().Delete(slot) {
		return false, nil
	}
	h.SetDirty()
	tf.hf.noteDelete(pageNo)
	return true, nil
}

func (tf *TableFile) split(rowID int64) (pageNo, slot int, err error) {
	spp := int64(tf.hf.SlotsPerPage())
	pageNo, slot = int(rowID/spp), int(rowID%spp)
	if rowID < 0 || pageNo >= tf.hf.NumPages() {
		return 0, 0, fmt.Errorf("storage: row id %d out of range of %s", rowID, tf.hf.Path())
	}
	return pageNo, slot, nil
}

// Scan iterates every live row in rowid order through the pool, pinning
// one page at a time. fn receives the row id and a reused row buffer it
// must not retain; a non-nil error from fn aborts the scan (with the
// current page unpinned).
func (tf *TableFile) Scan(fn func(rowID int64, row []int64) error) error {
	row := make([]int64, tf.hf.NCols())
	spp := int64(tf.hf.SlotsPerPage())
	for pageNo := 0; pageNo < tf.hf.NumPages(); pageNo++ {
		if err := tf.scanPage(pageNo, spp, row, fn); err != nil {
			return err
		}
	}
	return nil
}

func (tf *TableFile) scanPage(pageNo int, spp int64, row []int64, fn func(rowID int64, row []int64) error) error {
	h, err := tf.pool.Fetch(tf.hf, pageNo)
	if err != nil {
		return err
	}
	defer h.Unpin()
	p := h.Page()
	for slot := 0; slot < p.NumSlots(); slot++ {
		if !p.ReadTuple(slot, row) {
			continue
		}
		if err := fn(int64(pageNo)*spp+int64(slot), row); err != nil {
			return err
		}
	}
	return nil
}

// Flush writes back this table's dirty pooled pages.
func (tf *TableFile) Flush() error { return tf.pool.FlushFile(tf.hf) }

// Close flushes and drops this table's pages from the pool, then closes
// the file. It fails if any of the table's pages is still pinned.
func (tf *TableFile) Close() error {
	if err := tf.pool.ReleaseFile(tf.hf); err != nil {
		return err
	}
	return tf.hf.Close()
}
