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
// free-space map (free slot count per page) and zone map (per page and
// column, the [min, max] of the values inserted). Both are maintained
// incrementally by TableFile mutations and rebuilt from the pages on Open —
// which also verifies every page checksum, so corruption surfaces at reopen,
// not mid-scan. Neither is written to disk.
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
	// zones holds, for page p and column c, at 2*(p*ncols+c) the least and
	// after it the greatest value inserted into the page since it was
	// allocated or the file opened (its live values at open). A delete leaves
	// a zone as wide as it was. An empty page's zones are [MaxInt64,
	// MinInt64], which no interval meets.
	zones []int64
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
// checksums correctly and carries its own number and ncols-wide tuples, and
// rebuilds the free-space and zone maps from the pages. A bad page fails it
// with *ChecksumError, *PageNumberError or *PageWidthError; a file that ends
// mid-page ends in a torn page, a *ChecksumError on that page.
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
		return &ChecksumError{Path: hf.path, PageNo: int(st.Size() / PageSize)}
	}
	npages := int(st.Size() / PageSize)
	free, low := make([]int, npages), 0
	zones := make([]int64, 0, 2*npages*hf.ncols)
	buf := make([]byte, PageSize)
	var slots [PageSize / 8]uint16
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
		zones = appendEmptyZones(zones, hf.ncols)
		zone := zones[2*pno*hf.ncols:]
		for _, slot := range p.LiveSlots(slots[:0]) {
			for c := range hf.ncols {
				widen(zone[2*c:], p.Value(int(slot), c))
			}
		}
		buf = make([]byte, PageSize) // PageFromBytes retains buf
	}
	hf.mu.Lock()
	hf.npages = npages
	hf.free, hf.low, hf.zones = free, low, zones
	hf.mu.Unlock()
	return nil
}

// appendEmptyZones appends one page's ncols empty zones to zones.
func appendEmptyZones(zones []int64, ncols int) []int64 {
	for range ncols {
		zones = append(zones, math.MaxInt64, math.MinInt64)
	}
	return zones
}

// widen stretches the zone at zone[0:2] to hold v.
func widen(zone []int64, v int64) {
	zone[0], zone[1] = min(zone[0], v), max(zone[1], v)
}

// MayHold returns which of the up to 64 pages from first on may hold a value
// of col in [lo, hi], a bit per page (bit i for page first+i): those whose
// zone meets the interval. A page it leaves out holds no such value, and
// none holds one if lo > hi. It takes the map's lock once, so a scan asks
// it once per filter per 64 pages.
func (hf *HeapFile) MayHold(first, col int, lo, hi int64) uint64 {
	if lo > hi {
		return 0
	}
	hf.mu.Lock()
	defer hf.mu.Unlock()
	var may uint64
	for i := range min(64, hf.npages-first) {
		zone := hf.zones[2*((first+i)*hf.ncols+col):]
		if zone[0] <= zone[1] && zone[0] <= hi && lo <= zone[1] {
			may |= 1 << i
		}
	}
	return may
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

// noteInsert decrements pageNo's free count after a successful insert of
// row, widens the page's zones to hold it and moves the first-fit hint past
// the pages that are now full.
func (hf *HeapFile) noteInsert(pageNo int, row []int64) {
	hf.mu.Lock()
	defer hf.mu.Unlock()
	if pageNo >= 0 && pageNo < len(hf.free) && hf.free[pageNo] > 0 {
		hf.free[pageNo]--
		zone := hf.zones[2*pageNo*hf.ncols:]
		for c, v := range row {
			widen(zone[2*c:], v)
		}
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
	hf.zones = appendEmptyZones(hf.zones, hf.ncols)
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
