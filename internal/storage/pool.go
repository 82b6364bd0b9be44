package storage

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"ml4db/internal/modelsvc"
	"ml4db/internal/obs"
)

// ErrAllPinned matches any eviction failure caused by every frame being
// pinned.
var ErrAllPinned = errors.New("storage: all buffer-pool frames are pinned")

// AllPinnedError reports that a page could not be brought in because every
// frame is pinned — eviction of a pinned page is refused, never forced.
type AllPinnedError struct {
	Capacity int
}

// Error implements error.
func (e *AllPinnedError) Error() string {
	return fmt.Sprintf("storage: cannot evict, all %d buffer-pool frames are pinned", e.Capacity)
}

// Is reports all-pinned failures as ErrAllPinned so errors.Is matches.
func (e *AllPinnedError) Is(target error) bool { return target == ErrAllPinned }

// PageKey identifies one page of one registered heap file inside a Pool.
type PageKey struct {
	File uint32
	Page uint32
}

// Less orders keys (file, then page) — the deterministic order a scorer's
// ties are broken in.
func (k PageKey) Less(o PageKey) bool {
	if k.File != o.File {
		return k.File < o.File
	}
	return k.Page < o.Page
}

// PoolOptions configures a Pool.
type PoolOptions struct {
	// Capacity is the frame count; values below one default to 64.
	Capacity int
	// Scorer, when non-nil, predicts each unpinned frame's forward reuse
	// distance from its access history, and the largest prediction is
	// evicted; nil is LRU, served in O(1) from the pool's own recency list.
	// It is called under the pool lock: typically the modelsvc.Rollout from
	// NewScorerRollout, so promotions reach the pool with no wrapper.
	Scorer modelsvc.Predictor
	// Metrics, when non-nil, receives storage.pool.* instruments.
	Metrics *obs.Registry
	// RecordEvictions keeps the eviction sequence for replay-determinism
	// checks (EvictionLog). Off by default: the log grows with evictions.
	RecordEvictions bool
}

// Pool is the buffer pool: a fixed number of frames caching heap-file pages
// with pin/unpin discipline, dirty tracking and write-back, and LRU or
// learned eviction. All state transitions happen under one mutex, in caller
// order, with a logical tick as the only clock — which is what makes
// eviction sequences replayable.
type Pool struct {
	mu     sync.Mutex
	opts   PoolOptions
	frames map[PageKey]*frame
	lru    recency             // every resident frame, cold to hot
	spare  []byte              // the last victim's page buffer, refilled by the next miss
	x      [FeatureDim]float64 // the scorer's input: it must not retain it
	// runFree holds the buffers of released scan runs, taken by the next
	// scans' first reads (at most maxRunFree of them).
	runFree [][]byte
	files   map[*HeapFile]uint32
	nextID  uint32
	tick    uint64
	// epoch counts write-backs (and file releases): a scan run staged under
	// an older epoch may hold bytes a write replaced, so it is read again. It
	// advances under mu; a scan reads it after its read, outside mu.
	epoch atomic.Uint64
	// misses is counted outside mu by scan reads, under it by Fetch.
	misses atomic.Int64

	hits, evictions, writebacks, reads, pagesRead int64
	evictLog                                      []PageKey

	cHits, cMisses, cEvictions, cWritebacks, cReads *obs.Counter
	hReuse                                          *obs.Histogram
}

// reuseBuckets cover on-hit reuse distances (ticks) from 1 to ~16M.
var reuseBuckets = obs.ExpBuckets(1, 4, 13)

// maxRunFree bounds the scan-run free list: one buffer per scan shard in
// flight is all a steady state needs; buffers released beyond it go to the GC.
const maxRunFree = 8

// runPages is the longest run one pread stages: 32 pages, 128 KiB.
const runPages = 32

// NewPool returns a buffer pool with the given options.
func NewPool(opts PoolOptions) *Pool {
	if opts.Capacity < 1 {
		opts.Capacity = 64
	}
	p := &Pool{
		opts:   opts,
		frames: make(map[PageKey]*frame, opts.Capacity),
		files:  make(map[*HeapFile]uint32),
	}
	p.lru.init()
	if m := opts.Metrics; m != nil {
		p.cHits = m.Counter("storage.pool.hits")
		p.cMisses = m.Counter("storage.pool.misses")
		p.cEvictions = m.Counter("storage.pool.evictions")
		p.cWritebacks = m.Counter("storage.pool.writebacks")
		p.cReads = m.Counter("storage.pool.reads")
		p.hReuse = m.Histogram("storage.pool.reuse_dist", reuseBuckets)
	}
	return p
}

// Capacity returns the frame count.
func (p *Pool) Capacity() int { return p.opts.Capacity }

// fileID registers hf on first use. Registration order follows first-fetch
// order, so key assignment is deterministic for a deterministic workload.
func (p *Pool) fileID(hf *HeapFile) uint32 {
	if id, ok := p.files[hf]; ok {
		return id
	}
	id := p.nextID
	p.nextID++
	p.files[hf] = id
	return id
}

// PageHandle is a pinned page. The holder may read the page, mutate it and
// mark it dirty; it must call Unpin on every non-error path when done (the
// spanend analyzer checks this). Unpin is idempotent per handle.
//
// A ScanRun.Read handle may instead serve a page from the scan's run, read
// around the pool (fr nil, page set); such handles are read-only and pin
// nothing.
type PageHandle struct {
	pool     *Pool
	fr       *frame
	page     Page // scan-run handles only: the page, in the run's buffer
	missed   bool
	released bool
}

// Page returns the pinned page. Valid until Unpin: after that the frame may
// be evicted and the same Page refilled with another page's bytes (a scan
// run's page, until the run's next Read or Release).
func (h *PageHandle) Page() *Page {
	if h.fr == nil {
		return &h.page
	}
	return h.fr.page
}

// Missed reports whether this fetch had to read the page from disk (a pool
// miss) — the signal the executor charges as PageMiss work.
func (h *PageHandle) Missed() bool { return h.missed }

// SetDirty marks the page as modified so eviction and Flush write it back.
// Scan-run handles are read-only: dirtying the run's copy would silently
// lose the write, so that is a programming error.
func (h *PageHandle) SetDirty() {
	if h.fr == nil {
		//ml4db:allow nakedpanic "read-only scan-run handles have no frame to dirty; losing the write silently would corrupt the table"
		panic("storage: SetDirty on a read-only scan handle")
	}
	h.pool.mu.Lock()
	h.fr.dirty = true
	h.pool.mu.Unlock()
}

// Unpin releases the pin. Calling it more than once is a no-op. A scan-run
// handle holds no frame: its page stays the run's.
func (h *PageHandle) Unpin() {
	if h.fr == nil {
		return
	}
	p := h.pool
	p.mu.Lock()
	if !h.released && h.fr.pins > 0 {
		h.fr.pins--
	}
	h.released = true
	p.mu.Unlock()
}

// Fetch pins pageNo of hf into the pool, reading it from disk on a miss
// (into the frame of an unpinned victim when the pool is full) and returns
// the handle. With every frame pinned it fails with *AllPinnedError; a page
// that fails its checksum on load surfaces as *ChecksumError, one holding
// tuples of another width than hf's as *PageWidthError. A failed Fetch
// leaves the resident set, the recency order and every frame's access
// history as they were.
//
// Fetch allocates nothing: it is small enough to inline, so the handle lives
// in the caller's frame unless the caller lets it escape.
func (p *Pool) Fetch(hf *HeapFile, pageNo int) (*PageHandle, error) {
	h, err := p.fetch(hf, pageNo)
	if err != nil {
		return nil, err
	}
	return &h, nil
}

// fetch is Fetch returning the handle by value.
func (p *Pool) fetch(hf *HeapFile, pageNo int) (PageHandle, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tick++
	key := PageKey{File: p.fileID(hf), Page: uint32(pageNo)}
	fr, hit := p.frames[key]
	if hit {
		p.hits++
		p.cHits.Inc()
		p.hReuse.Observe(float64(p.tick - fr.hist.last))
		fr.pins++
	} else {
		var err error
		if fr, err = p.loadLocked(hf, key); err != nil {
			return PageHandle{}, err
		}
		p.misses.Add(1)
		p.cMisses.Inc()
	}
	fr.hist.access(p.tick)
	p.lru.touch(fr)
	return PageHandle{pool: p, fr: fr, missed: !hit}, nil
}

// loadLocked reads key's page into a frame pinned once: a fresh frame while
// the pool is filling, afterwards the victim's, re-keyed in place. The page
// is read and verified into the spare buffer before the victim is touched —
// a failed read must not cost a resident page — and the victim's buffer is
// the next spare, so a steady-state miss allocates nothing here.
func (p *Pool) loadLocked(hf *HeapFile, key PageKey) (*frame, error) {
	var fr *frame
	if len(p.frames) >= p.opts.Capacity {
		if fr = p.victimLocked(); fr == nil {
			return nil, &AllPinnedError{Capacity: p.opts.Capacity}
		}
	}
	if p.spare == nil {
		p.spare = make([]byte, PageSize)
	}
	p.countRead(1)
	page, err := hf.readPageInto(p.spare, int(key.Page))
	if err != nil {
		return nil, err
	}
	if fr == nil {
		fr, p.spare = &frame{page: new(Page)}, nil
	} else {
		if err := p.unmapLocked(fr); err != nil {
			return nil, err
		}
		p.evictions++
		p.cEvictions.Inc()
		if p.opts.RecordEvictions {
			p.evictLog = append(p.evictLog, fr.key)
		}
		p.spare = fr.page.buf
	}
	*fr.page = page
	fr.key, fr.hf, fr.pins, fr.hist = key, hf, 1, history{}
	p.frames[key] = fr
	return fr, nil
}

// countRead counts one pread the pool issues, of n pages.
func (p *Pool) countRead(n int) {
	p.reads++
	p.pagesRead += int64(n)
	p.cReads.Inc()
}

// ScanRun is one scan's read path into a pool: the run buffer holding pages
// [lo, hi) of hf, staged by one pread at the pool's write epoch epoch. The
// scan owns it, one goroutine at a time.
type ScanRun struct {
	pool   *Pool
	hf     *HeapFile
	buf    []byte
	lo, hi int
	epoch  uint64
}

// NewScanRun returns an empty run for one scan of hf through p. Its buffer
// is taken from the pool's free list at the first read and handed back by
// Release, so a steady-state scan allocates nothing.
func (p *Pool) NewScanRun(hf *HeapFile) ScanRun { return ScanRun{pool: p, hf: hf} }

// Release hands the run's buffer to the pool's free list for the next scan
// and empties the run. Every handle it served must be unpinned first.
func (r *ScanRun) Release() {
	if p := r.pool; r.buf != nil {
		p.mu.Lock()
		if len(p.runFree) < maxRunFree {
			p.runFree = append(p.runFree, r.buf)
		}
		p.mu.Unlock()
	}
	r.buf, r.lo, r.hi = nil, 0, 0
}

// Read is the scan read path: it returns page pageNo and leaves the pool's
// replacement state as it found it, so scans, serial or sharded in any
// interleaving, change no later eviction and keep replay deterministic. may
// holds the pages the scan will read from pageNo on, bit i for page
// pageNo+i. A resident page is pinned and counted as a hit, with no tick,
// access-history update or reuse sample. Any other page is counted as a miss
// and served read-only from the run: when the run does not hold it, one
// pread outside the pool lock stages the pages from it on that are in may,
// not resident and in the file, at most runPages of them; a run that comes
// back short falls back to a single-page read. Nothing is inserted or evicted, and an
// unknown file is not registered. Each page is verified on its own, so a
// corrupt page fails only its own read, with the typed error Fetch returns,
// and a page staged before a write-back is read again. A served page is
// valid until the next Read or Release. Read inlines like Fetch, so the
// handle lives in the caller's frame. Safe for concurrent use with Fetch and
// with other runs.
func (r *ScanRun) Read(pageNo int, may uint64) (*PageHandle, error) {
	h, err := r.read(pageNo, may)
	if err != nil {
		return nil, err
	}
	return &h, nil
}

// read is Read returning the handle by value. It takes the pool lock once per
// page: to find a resident page, or to stage a run and find the page not
// resident. The pread, the verify and the epoch check run outside it: when a
// write-back ran since the run was staged — before or during this read — the
// page may hold bytes the write replaced, so it drops the run and reads again.
func (r *ScanRun) read(pageNo int, may uint64) (PageHandle, error) {
	p, hf := r.pool, r.hf
	for {
		p.mu.Lock()
		id, known := p.files[hf]
		if fr, ok := p.frames[PageKey{File: id, Page: uint32(pageNo)}]; known && ok {
			p.hits++
			p.cHits.Inc()
			fr.pins++
			p.mu.Unlock()
			return PageHandle{pool: p, fr: fr}, nil
		}
		staged := pageNo >= r.lo && pageNo < r.hi
		hi := pageNo + 1
		if !staged {
			hi = r.stageLocked(pageNo, may)
		}
		p.mu.Unlock()
		var page Page
		var err error
		fromRun := staged || hi-pageNo > 1 && hf.readRun(r.buf[:(hi-pageNo)*PageSize], pageNo)
		if fromRun {
			r.hi = max(r.hi, hi) // a fresh run's end; a staged page's hi is inside the run
			at := (pageNo - r.lo) * PageSize
			page, err = hf.verify(r.buf[at:at+PageSize], pageNo)
		} else {
			page, err = hf.readPageInto(r.buf[:PageSize], pageNo)
			if hi-pageNo > 1 { // a short run's single-page read: rare, so locked
				p.mu.Lock()
				p.countRead(1)
				p.mu.Unlock()
			}
		}
		if p.epoch.Load() != r.epoch {
			r.hi = r.lo
			continue
		}
		if err == nil {
			p.misses.Add(1)
			p.cMisses.Inc()
		}
		return PageHandle{pool: p, page: page, missed: true}, err
	}
}

// stageLocked points the run, empty, at pageNo and returns the end of the
// pages one pread stages from it: in may, not resident, in the file, at most
// runPages. The buffer comes from the pool's free list, or is allocated.
func (r *ScanRun) stageLocked(pageNo int, may uint64) int {
	p := r.pool
	id, known := p.files[r.hf]
	hi := pageNo + 1
	for end := min(pageNo+runPages, r.hf.NumPages()); hi < end && may>>(hi-pageNo)&1 != 0; hi++ {
		if _, ok := p.frames[PageKey{File: id, Page: uint32(hi)}]; known && ok {
			break
		}
	}
	if r.buf == nil {
		if k := len(p.runFree); k > 0 {
			r.buf, p.runFree = p.runFree[k-1], p.runFree[:k-1]
		} else {
			r.buf = make([]byte, runPages*PageSize)
		}
	}
	r.lo, r.hi, r.epoch = pageNo, pageNo, p.epoch.Load()
	p.countRead(hi - pageNo)
	return hi
}

// victimLocked picks the frame to evict, or nil when every frame is pinned.
// LRU takes the first unpinned frame from the cold end: O(1) plus the pinned
// frames it steps over. A Scorer scores every unpinned frame — that O(n) is
// the model's — and the largest predicted reuse distance goes, ties to the
// lower PageKey. A NaN or infinite score is the recency feature instead, so
// a broken model degrades to LRU.
func (p *Pool) victimLocked() *frame {
	var victim *frame
	var best float64
	for fr := p.lru.coldest(); fr != nil; fr = p.lru.next(fr) {
		if fr.pins != 0 {
			continue
		}
		if p.opts.Scorer == nil {
			return fr
		}
		x := fr.hist.features(p.x[:], p.tick)
		s := p.opts.Scorer.Predict(x)
		if math.IsNaN(s) || math.IsInf(s, 0) {
			s = x[0]
		}
		//ml4db:allow floateq "a tie is two equal scores, not two close ones: only exact equality falls through to the key order"
		if victim == nil || s > best || (s == best && fr.key.Less(victim.key)) {
			victim, best = fr, s
		}
	}
	return victim
}

// unmapLocked writes fr back if dirty and takes its key out of the index;
// the frame itself, still on the list, is the caller's to re-key or unlink.
func (p *Pool) unmapLocked(fr *frame) error {
	if err := p.writeBackLocked(fr); err != nil {
		return err
	}
	delete(p.frames, fr.key)
	return nil
}

// writeBackLocked writes fr's page to its file if it is dirty, advancing the
// write epoch: a scan run staged before it is never served after the write.
func (p *Pool) writeBackLocked(fr *frame) error {
	if !fr.dirty {
		return nil
	}
	p.epoch.Add(1)
	if err := fr.hf.WritePage(fr.page); err != nil {
		return err
	}
	fr.dirty = false
	p.writebacks++
	p.cWritebacks.Inc()
	return nil
}

// PoolStats is a snapshot of the pool's counters and occupancy. Reads counts
// the preads the pool issued: one per Fetch miss, one per scan run (plus the
// single-page read after a short one); PagesRead the pages they transferred,
// so PagesRead - Misses counts pages a scan staged but did not serve (it
// stopped first, or a write-back outdated the run) and failed reads.
type PoolStats struct {
	Hits, Misses, Evictions, Writebacks, Reads, PagesRead int64
	Resident, Pinned                                      int
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := PoolStats{
		Hits: p.hits, Misses: p.misses.Load(),
		Evictions: p.evictions, Writebacks: p.writebacks, Reads: p.reads,
		PagesRead: p.pagesRead, Resident: len(p.frames),
	}
	for fr := p.lru.coldest(); fr != nil; fr = p.lru.next(fr) {
		if fr.pins > 0 {
			st.Pinned++
		}
	}
	return st
}

// PinnedCount returns how many frames currently hold at least one pin —
// zero after any well-behaved scan, aborted or not.
func (p *Pool) PinnedCount() int { return p.Stats().Pinned }

// EvictionLog returns a copy of the recorded eviction sequence (empty
// unless RecordEvictions was set).
func (p *Pool) EvictionLog() []PageKey {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]PageKey, len(p.evictLog))
	copy(out, p.evictLog)
	return out
}

// FlushAll writes back every dirty resident page (coldest first) without
// evicting anything.
func (p *Pool) FlushAll() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.flushLocked(nil)
}

// FlushFile writes back hf's dirty resident pages (coldest first).
func (p *Pool) FlushFile(hf *HeapFile) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.flushLocked(hf)
}

func (p *Pool) flushLocked(only *HeapFile) error {
	for fr := p.lru.coldest(); fr != nil; fr = p.lru.next(fr) {
		if only != nil && fr.hf != only {
			continue
		}
		if err := p.writeBackLocked(fr); err != nil {
			return err
		}
	}
	return nil
}

// ReleaseFile flushes hf's dirty pages, drops all its frames (coldest first)
// and forgets the file, so it can be closed or reopened; a later Fetch of the
// same HeapFile registers it afresh under a new id. It fails with
// *AllPinnedError semantics, before changing anything, if any of hf's pages
// is still pinned.
func (p *Pool) ReleaseFile(hf *HeapFile) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for fr := p.lru.coldest(); fr != nil; fr = p.lru.next(fr) {
		if fr.hf == hf && fr.pins > 0 {
			return fmt.Errorf("storage: releasing %s with page %d still pinned: %w", hf.Path(), fr.key.Page, ErrAllPinned)
		}
	}
	p.epoch.Add(1)
	for fr := p.lru.coldest(); fr != nil; {
		next := p.lru.next(fr)
		if fr.hf == hf {
			if err := p.unmapLocked(fr); err != nil {
				return err
			}
			p.lru.remove(fr)
		}
		fr = next
	}
	delete(p.files, hf)
	return nil
}
