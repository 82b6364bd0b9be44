package storage

import (
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"

	"ml4db/internal/mlmath"
	"ml4db/internal/modelsvc"
)

// refPool is the eviction rule written the slow obvious way as the oracle:
// among unpinned residents evict the minimum last-access tick, or — given a
// scorer — the maximum score of the page's fillFeatures encoding, with ties
// to the lowest PageKey. Each page keeps its own last and previous access
// tick and access count, from when it came in; scan reads do not count. It
// scans a map, so it cannot lean on any order.
type refPool struct {
	cap    int
	score  modelsvc.Predictor // nil: LRU
	tick   uint64
	pages  map[PageKey]*refPage
	files  map[*HeapFile]uint32
	nextID uint32
	log    []PageKey
	st     PoolStats
}

type refPage struct {
	hf                *HeapFile
	last, prev, count uint64 // count: accesses since the page came in
	pins              int
	dirty             bool
}

func (r *refPool) victim() (best PageKey, found bool) {
	var bestScore float64
	for k, pg := range r.pages {
		if pg.pins > 0 {
			continue
		}
		s := -float64(pg.last)
		if r.score != nil {
			gap := uint64(0)
			if pg.prev > 0 {
				gap = pg.last - pg.prev
			}
			s = r.score.Predict(fillFeatures(make([]float64, FeatureDim), r.tick-pg.last, pg.count, gap))
		}
		if !found || s > bestScore || (s == bestScore && k.Less(best)) {
			best, bestScore, found = k, s, true
		}
	}
	return best, found
}

// fetch mirrors Pool.Fetch; ok is false where the pool must report
// *AllPinnedError.
func (r *refPool) fetch(hf *HeapFile, pageNo int) (key PageKey, missed, ok bool) {
	r.tick++
	id, known := r.files[hf]
	if !known {
		id = r.nextID
		r.nextID++
		r.files[hf] = id
	}
	key = PageKey{File: id, Page: uint32(pageNo)}
	if pg := r.pages[key]; pg != nil {
		r.st.Hits++
		pg.prev, pg.last = pg.last, r.tick
		pg.count++
		pg.pins++
		return key, false, true
	}
	if len(r.pages) >= r.cap {
		v, found := r.victim()
		if !found {
			return key, false, false
		}
		if r.pages[v].dirty {
			r.st.Writebacks++
		}
		delete(r.pages, v)
		r.st.Evictions++
		r.log = append(r.log, v)
	}
	r.st.Misses++
	r.pages[key] = &refPage{hf: hf, last: r.tick, count: 1, pins: 1}
	return key, true, true
}

// fetchScan mirrors ScanRun.Read: a resident page is pinned and counted,
// nothing else moves. pinned reports whether the handle holds a frame.
func (r *refPool) fetchScan(hf *HeapFile, pageNo int) (key PageKey, pinned bool) {
	if id, known := r.files[hf]; known {
		key = PageKey{File: id, Page: uint32(pageNo)}
		if pg := r.pages[key]; pg != nil {
			r.st.Hits++
			pg.pins++
			return key, true
		}
	}
	r.st.Misses++
	return key, false
}

// release mirrors Pool.ReleaseFile; false where the pool must refuse.
func (r *refPool) release(hf *HeapFile) bool {
	for _, pg := range r.pages {
		if pg.hf == hf && pg.pins > 0 {
			return false
		}
	}
	for k, pg := range r.pages {
		if pg.hf == hf {
			if pg.dirty {
				r.st.Writebacks++
			}
			delete(r.pages, k)
		}
	}
	delete(r.files, hf)
	return true
}

func (r *refPool) stats() PoolStats {
	st := r.st
	st.Resident = len(r.pages)
	for _, pg := range r.pages {
		if pg.pins > 0 {
			st.Pinned++
		}
	}
	return st
}

// heldPin is a pin both sides still hold; key is zero-valued and pinned
// false for a handle a scan run serves.
type heldPin struct {
	h      *PageHandle
	key    PageKey
	pinned bool
}

// diffTrace drives the real pool and the reference side by side over one
// seeded random trace and fails at the first step they disagree on: the pool
// under scorer, the reference under refScorer.
func diffTrace(t *testing.T, name string, capacity int, scorer, refScorer modelsvc.Predictor, seed uint64, files []*HeapFile) {
	t.Helper()
	pool := NewPool(PoolOptions{Capacity: capacity, Scorer: scorer, RecordEvictions: true})
	ref := &refPool{cap: capacity, score: refScorer, pages: map[PageKey]*refPage{}, files: map[*HeapFile]uint32{}}
	rng := mlmath.NewRNG(seed)
	runs := map[*HeapFile]*ScanRun{}
	for _, hf := range files {
		run := pool.NewScanRun(hf)
		runs[hf] = &run
		defer run.Release()
	}
	var held []heldPin
	allPinned := 0
	unpin := func(i int) {
		hp := held[i]
		hp.h.Unpin()
		if hp.pinned {
			ref.pages[hp.key].pins--
		}
		held[i] = held[len(held)-1]
		held = held[:len(held)-1]
	}
	steps := 1500 + 40*capacity
	for step := 0; step < steps; step++ {
		hf := files[rng.Intn(len(files))]
		pageNo := rng.Intn(hf.NumPages())
		at := fmt.Sprintf("%s cap %d seed %d step %d", name, capacity, seed, step)
		switch op := rng.Intn(100); {
		case op < 70: // Fetch, sometimes dirtied, sometimes held across later fetches
			h, err := pool.Fetch(hf, pageNo)
			key, missed, ok := ref.fetch(hf, pageNo)
			if !ok {
				var ap *AllPinnedError
				if !errors.As(err, &ap) {
					t.Fatalf("%s: Fetch err = %v, want *AllPinnedError", at, err)
				}
				allPinned++
				continue
			}
			if err != nil {
				t.Fatalf("%s: Fetch: %v", at, err)
			}
			if h.Missed() != missed || h.Page().PageNo() != pageNo {
				t.Fatalf("%s: Fetch missed=%v page=%d, want missed=%v page=%d", at, h.Missed(), h.Page().PageNo(), missed, pageNo)
			}
			if rng.Intn(4) == 0 {
				h.SetDirty()
				ref.pages[key].dirty = true
			}
			held = append(held, heldPin{h, key, true})
			if rng.Intn(5) != 0 {
				unpin(len(held) - 1)
			}
		case op < 80: // a scan read in between, any pages after it in its mask: must not move the recency order
			h, err := runs[hf].Read(pageNo, uint64(step)*0x9E3779B97F4A7C15|1)
			if err != nil {
				t.Fatalf("%s: scan read: %v", at, err)
			}
			key, pinned := ref.fetchScan(hf, pageNo)
			if h.Missed() == pinned || h.Page().PageNo() != pageNo {
				t.Fatalf("%s: scan read missed=%v page=%d, want missed=%v page=%d", at, h.Missed(), h.Page().PageNo(), !pinned, pageNo)
			}
			held = append(held, heldPin{h, key, pinned})
			if rng.Intn(3) != 0 {
				unpin(len(held) - 1)
			}
		case op < 98:
			if len(held) > 0 {
				unpin(rng.Intn(len(held)))
			}
		default: // ReleaseFile mid-trace; the next fetch re-registers the file
			err := pool.ReleaseFile(hf)
			if ok := ref.release(hf); ok != (err == nil) || (err != nil && !errors.Is(err, ErrAllPinned)) {
				t.Fatalf("%s: ReleaseFile err = %v, reference released = %v", at, err, ok)
			}
		}
		got, want := pool.Stats(), ref.stats()
		got.Reads, got.PagesRead = 0, 0 // run reads change how many preads a miss costs, nothing the reference models
		if got != want {
			t.Fatalf("%s: stats = %+v, want %+v", at, got, want)
		}
		if n := len(ref.log); n != len(pool.evictLog) || (n > 0 && pool.evictLog[n-1] != ref.log[n-1]) {
			t.Fatalf("%s: eviction log ends %v, want %v", at, pool.evictLog[max(0, len(pool.evictLog)-3):], ref.log[max(0, n-3):])
		}
	}
	if got := pool.EvictionLog(); len(got) != len(ref.log) || (len(got) > 0 && !reflect.DeepEqual(got, ref.log)) {
		t.Fatalf("%s cap %d seed %d: eviction log %v, want %v", name, capacity, seed, got, ref.log)
	}
	if capacity <= 2 && allPinned == 0 {
		t.Errorf("%s cap %d seed %d: trace never hit the all-pinned point", name, capacity, seed)
	}
	if capacity >= 4 && len(ref.log) == 0 {
		t.Errorf("%s cap %d seed %d: trace never evicted", name, capacity, seed)
	}
}

// TestEvictionMatchesReference is the differential test behind "the recency
// list and the frames' access histories changed the cost of eviction and
// nothing else". LRU from the list and the Recency scorer (which must equal
// LRU), a constant scorer (every score ties, so the lowest key goes) and a
// scorer reading all three features each evict the reference's exact
// sequence, with the same counters and the same all-pinned points. A scorer
// answering NaN, +Inf or -Inf falls back to the recency feature: it must
// evict exactly LRU's sequence.
func TestEvictionMatchesReference(t *testing.T) {
	files := []*HeapFile{newPooledFile(t, "a.heap", 90), newPooledFile(t, "b.heap", 70)}
	constant := predictorFunc(func([]float64) float64 { return 1 })
	mixed := predictorFunc(func(x []float64) float64 { return x[0] - x[1] + 0.5*x[2] })
	for _, capacity := range []int{1, 2, 3, 4, 5, 6, 7, 8, 128} {
		for seed := uint64(1); seed <= 3; seed++ {
			diffTrace(t, "lru", capacity, nil, nil, seed, files)
			diffTrace(t, "recency", capacity, Recency{}, nil, seed, files)
			diffTrace(t, "constant", capacity, constant, constant, seed, files)
			diffTrace(t, "count-and-gap", capacity, mixed, mixed, seed, files)
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				broken := predictorFunc(func([]float64) float64 { return bad })
				diffTrace(t, fmt.Sprintf("broken(%v)", bad), capacity, broken, nil, seed, files)
			}
		}
	}
}

// TestFailedReadCostsNoResidentPage: with the pool full, a fetch whose page
// fails its checksum must leave the resident set, the recency order, the
// frames' access histories and the eviction log exactly as they were — the
// victim is only evicted once the incoming page has been read and verified.
func TestFailedReadCostsNoResidentPage(t *testing.T) {
	for _, tc := range []struct {
		name   string
		scorer modelsvc.Predictor
	}{
		{"lru", nil},
		{"learned", Recency{}},
	} {
		hf := newPooledFile(t, tc.name+".heap", 4)
		f, err := os.OpenFile(hf.Path(), os.O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte{0xAB}, 3*PageSize+PageSize/2); err != nil { // tear page 3
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		pool := NewPool(PoolOptions{Capacity: 2, Scorer: tc.scorer, RecordEvictions: true})
		h, err := pool.Fetch(hf, 0)
		if err != nil {
			t.Fatal(err)
		}
		h.SetDirty() // the would-be victim is dirty: it must not be written back either
		h.Unpin()
		fetchAndRelease(t, pool, hf, 1)
		before, frames := pool.Stats(), frameState(pool)
		if _, err := pool.Fetch(hf, 3); !errors.Is(err, ErrChecksum) {
			t.Fatalf("%s: fetch of torn page: got %v, want ErrChecksum", tc.name, err)
		}
		before.Reads, before.PagesRead = before.Reads+1, before.PagesRead+1 // the failed pread of page 3
		if after := pool.Stats(); after != before {
			t.Fatalf("%s: failed fetch changed the pool: %+v -> %+v", tc.name, before, after)
		}
		if got := frameState(pool); got != frames {
			t.Fatalf("%s: failed fetch changed the frames: %s -> %s", tc.name, frames, got)
		}
		if log := pool.EvictionLog(); len(log) != 0 {
			t.Fatalf("%s: failed fetch evicted %v", tc.name, log)
		}
		// The next good miss evicts page 0 — still resident, still the coldest
		// — and page 1 still hits.
		fetchAndRelease(t, pool, hf, 2)
		if got, want := pool.EvictionLog(), []PageKey{{File: 0, Page: 0}}; !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: eviction log = %v, want %v", tc.name, got, want)
		}
		if fetchAndRelease(t, pool, hf, 1) {
			t.Fatalf("%s: page 1 was lost to the failed fetch", tc.name)
		}
		if st := pool.Stats(); st.Writebacks != 1 {
			t.Fatalf("%s: writebacks = %d, want 1 (the dirty victim, once)", tc.name, st.Writebacks)
		}
	}
}

// TestReleaseFileForgetsTheFile: releasing drops the registration too, so a
// reopen cycle does not keep every closed HeapFile reachable from the pool;
// ids keep growing, so keys never alias a released file's.
func TestReleaseFileForgetsTheFile(t *testing.T) {
	pool := NewPool(PoolOptions{Capacity: 4})
	for cycle := 0; cycle < 3; cycle++ {
		hf := newPooledFile(t, fmt.Sprintf("c%d.heap", cycle), 2)
		fetchAndRelease(t, pool, hf, 0)
		if err := pool.ReleaseFile(hf); err != nil {
			t.Fatal(err)
		}
		if n := len(pool.files); n != 0 {
			t.Fatalf("cycle %d: %d files still registered after release", cycle, n)
		}
	}
	hf := newPooledFile(t, "last.heap", 1)
	fetchAndRelease(t, pool, hf, 0)
	if got, want := frameState(pool), " {3 0}@4/0/1x/0"; got != want {
		t.Fatalf("frames after three release cycles = %q, want %q: file id 3, fetched once at tick 4", got, want)
	}
}
