package storage

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
)

// HeapFile is a sequence of slotted pages in one OS file, plus an in-memory
// free-space map (free slot count per page). The map is maintained
// incrementally by TableFile mutations and rebuilt from the page bitmaps on
// Open — which also verifies every page checksum, so corruption surfaces at
// reopen, not mid-scan.
//
// HeapFile does not cache pages; all cached access goes through a Pool.
// Methods are safe for concurrent use (the free-space map is mutex-guarded
// and page I/O uses offset reads/writes), but tuple-level coordination is
// the buffer pool's and its callers' job.
type HeapFile struct {
	mu           sync.Mutex
	f            *os.File
	path         string
	ncols        int
	slotsPerPage int
	npages       int
	free         []int // free slots per page
	// low is the first-fit hint: every page below it is full, and it is the
	// lowest page with a free slot or len(free). Inserts advance it past full
	// pages, deletes lower it, so FirstFree never rescans the full prefix.
	low int
}

// CreateHeapFile creates (or truncates) the heap file at path for
// ncols-wide tuples.
func CreateHeapFile(path string, ncols int) (*HeapFile, error) {
	if ncols < 1 {
		return nil, fmt.Errorf("storage: heap file needs at least one column, got %d", ncols)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &HeapFile{f: f, path: path, ncols: ncols, slotsPerPage: SlotsPerPage(ncols)}, nil
}

// OpenHeapFile opens an existing heap file, verifying that every page
// checksums correctly and carries ncols-wide tuples, and rebuilds the
// free-space map from the slot bitmaps.
func OpenHeapFile(path string, ncols int) (*HeapFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	hf := &HeapFile{f: f, path: path, ncols: ncols, slotsPerPage: SlotsPerPage(ncols)}
	if err := hf.rebuildFreeMap(); err != nil {
		_ = f.Close() // surface the rebuild error, not the close
		return nil, err
	}
	return hf, nil
}

// rebuildFreeMap scans every page, verifying checksums and column width,
// and recomputes the per-page free slot counts.
func (hf *HeapFile) rebuildFreeMap() error {
	st, err := hf.f.Stat()
	if err != nil {
		return err
	}
	if st.Size()%PageSize != 0 {
		return fmt.Errorf("storage: %s is %d bytes, not a whole number of %d-byte pages", hf.path, st.Size(), PageSize)
	}
	npages := int(st.Size() / PageSize)
	free, low := make([]int, npages), 0
	buf := make([]byte, PageSize)
	for pno := 0; pno < npages; pno++ {
		if _, err := hf.f.ReadAt(buf, int64(pno)*PageSize); err != nil {
			return fmt.Errorf("storage: reading page %d of %s: %w", pno, hf.path, err)
		}
		p, err := PageFromBytes(buf, hf.path, pno)
		if err != nil {
			return err
		}
		if p.NCols() != hf.ncols {
			return &PageWidthError{Path: hf.path, PageNo: pno, NCols: p.NCols(), Want: hf.ncols}
		}
		free[pno] = p.FreeSlots()
		if free[pno] == 0 && low == pno {
			low++
		}
		buf = make([]byte, PageSize) // PageFromBytes retains buf
	}
	hf.mu.Lock()
	hf.npages = npages
	hf.free, hf.low = free, low
	hf.mu.Unlock()
	return nil
}

// Path returns the file path.
func (hf *HeapFile) Path() string { return hf.path }

// NCols returns the tuple width.
func (hf *HeapFile) NCols() int { return hf.ncols }

// SlotsPerPage returns the per-page slot capacity.
func (hf *HeapFile) SlotsPerPage() int { return hf.slotsPerPage }

// NumPages returns the current page count.
func (hf *HeapFile) NumPages() int {
	hf.mu.Lock()
	defer hf.mu.Unlock()
	return hf.npages
}

// LiveTuples sums the occupied slots across all pages, per the free-space
// map.
func (hf *HeapFile) LiveTuples() int { return hf.LiveTuplesIn(0, math.MaxInt) }

// LiveTuplesIn sums the occupied slots of pages [lo, hi) (hi clamped to the
// file), per the free-space map — how many rows a scan of that range reads.
func (hf *HeapFile) LiveTuplesIn(lo, hi int) int {
	hf.mu.Lock()
	defer hf.mu.Unlock()
	n := 0
	for _, fr := range hf.free[lo:min(hi, len(hf.free))] {
		n += hf.slotsPerPage - fr
	}
	return n
}

// FreeSlots returns the free-space map's count for pageNo.
func (hf *HeapFile) FreeSlots(pageNo int) int {
	hf.mu.Lock()
	defer hf.mu.Unlock()
	if pageNo < 0 || pageNo >= len(hf.free) {
		return 0
	}
	return hf.free[pageNo]
}

// FirstFree returns the lowest page number with at least one free slot
// (deterministic first-fit), or ok=false when every page is full. It reads
// the low-water hint, so appending to a file of n full pages costs O(1),
// not O(n).
func (hf *HeapFile) FirstFree() (pageNo int, ok bool) {
	hf.mu.Lock()
	defer hf.mu.Unlock()
	return hf.low, hf.low < len(hf.free)
}

// noteInsert decrements pageNo's free count after a successful insert and
// moves the first-fit hint past the pages that are now full.
func (hf *HeapFile) noteInsert(pageNo int) {
	hf.mu.Lock()
	defer hf.mu.Unlock()
	if pageNo >= 0 && pageNo < len(hf.free) && hf.free[pageNo] > 0 {
		hf.free[pageNo]--
	}
	for hf.low < len(hf.free) && hf.free[hf.low] == 0 {
		hf.low++
	}
}

// noteDelete increments pageNo's free count after a successful delete; the
// page is now a first-fit candidate, so the hint drops to it if it was
// higher.
func (hf *HeapFile) noteDelete(pageNo int) {
	hf.mu.Lock()
	defer hf.mu.Unlock()
	if pageNo >= 0 && pageNo < len(hf.free) && hf.free[pageNo] < hf.slotsPerPage {
		hf.free[pageNo]++
		hf.low = min(hf.low, pageNo)
	}
}

// AllocPage appends an initialized empty page to the file and returns its
// page number.
func (hf *HeapFile) AllocPage() (int, error) {
	hf.mu.Lock()
	pageNo := hf.npages
	hf.mu.Unlock()
	p := NewPage(pageNo, hf.ncols)
	p.UpdateChecksum()
	if _, err := hf.f.WriteAt(p.Bytes(), int64(pageNo)*PageSize); err != nil {
		return 0, fmt.Errorf("storage: allocating page %d of %s: %w", pageNo, hf.path, err)
	}
	hf.mu.Lock()
	hf.npages = pageNo + 1
	hf.free = append(hf.free, hf.slotsPerPage)
	hf.mu.Unlock()
	return pageNo, nil
}

// ReadPage reads and verifies pageNo from disk into a fresh Page.
func (hf *HeapFile) ReadPage(pageNo int) (*Page, error) {
	p, err := hf.readPageInto(make([]byte, PageSize), pageNo)
	if err != nil {
		return nil, err
	}
	return &p, nil
}

// readPageInto is ReadPage into a caller-owned PageSize buffer, which the
// returned Page retains — the form the pool recycles frame buffers through.
// Every page load goes through it, so a page that verifies but holds another
// width than the file's is rejected here, once, as *PageWidthError: readers
// may then decode any column below NCols without checking.
func (hf *HeapFile) readPageInto(buf []byte, pageNo int) (Page, error) {
	if pageNo < 0 || pageNo >= hf.NumPages() {
		return Page{}, fmt.Errorf("storage: page %d out of range of %s (%d pages)", pageNo, hf.path, hf.NumPages())
	}
	n, err := hf.f.ReadAt(buf, int64(pageNo)*PageSize)
	if err != nil && !errors.Is(err, io.EOF) {
		return Page{}, fmt.Errorf("storage: reading page %d of %s: %w", pageNo, hf.path, err)
	}
	clear(buf[n:]) // a short read must not verify against a recycled buffer's stale tail
	return hf.verify(buf, pageNo)
}

// verify parses buf, which it retains, as pageNo of hf: its checksum, then
// its width.
func (hf *HeapFile) verify(buf []byte, pageNo int) (Page, error) {
	p, err := parsePage(buf, hf.path, pageNo)
	if err == nil && p.ncols != hf.ncols {
		return Page{}, &PageWidthError{Path: hf.path, PageNo: pageNo, NCols: p.ncols, Want: hf.ncols}
	}
	return p, err
}

// readRun reads len(buf)/PageSize pages from page lo on into buf with one
// pread, unverified, and reports whether all of them came back.
func (hf *HeapFile) readRun(buf []byte, lo int) bool {
	n, err := hf.f.ReadAt(buf, int64(lo)*PageSize)
	return err == nil && n == len(buf)
}

// WritePage checksums and writes p back to its slot in the file.
func (hf *HeapFile) WritePage(p *Page) error {
	p.UpdateChecksum()
	if _, err := hf.f.WriteAt(p.Bytes(), int64(p.PageNo())*PageSize); err != nil {
		return fmt.Errorf("storage: writing page %d of %s: %w", p.PageNo(), hf.path, err)
	}
	return nil
}

// Sync flushes the OS file.
func (hf *HeapFile) Sync() error { return hf.f.Sync() }

// Close closes the OS file. Dirty pooled pages must be flushed first (see
// Pool.ReleaseFile / TableFile.Close).
func (hf *HeapFile) Close() error { return hf.f.Close() }
