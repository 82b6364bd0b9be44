package storage

import (
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

// raceFile builds a heap file with pages full of recognizable tuples.
func raceFile(t *testing.T, pages int) *HeapFile {
	t.Helper()
	hf, err := CreateHeapFile(filepath.Join(t.TempDir(), "race.heap"), 2)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < pages; p++ {
		pageNo, err := hf.AllocPage()
		if err != nil {
			t.Fatal(err)
		}
		page, err := hf.ReadPage(pageNo)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 4; s++ {
			page.Insert([]int64{int64(pageNo), int64(s)})
		}
		if err := hf.WritePage(page); err != nil {
			t.Fatal(err)
		}
	}
	return hf
}

// TestPoolConcurrentFetchScan is the race audit of the two read paths:
// concurrent Fetch (some dirtying, with flushes), ScanRun.Read over runs of
// several pages, Unpin, Stats and PinnedCount must be free of data races (run
// under -race), serve every page its own bytes and never tear the stats — no
// pins leak, and every access that succeeded is counted exactly once, a hit or
// a miss (scan reads count theirs outside the pool lock).
func TestPoolConcurrentFetchScan(t *testing.T) {
	const pages, goroutines, iters = 12, 8, 200
	hf := raceFile(t, pages)
	pool := NewPool(PoolOptions{Capacity: 6})
	// Register the file deterministically before the concurrent phase so
	// the scan read's registered-file path is exercised.
	h, err := pool.Fetch(hf, 0)
	if err != nil {
		t.Fatal(err)
	}
	h.Unpin()

	var wg sync.WaitGroup
	var served atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			run := pool.NewScanRun(hf)
			defer run.Release()
			row := make([]int64, 2)
			for i := 0; i < iters; i++ {
				pageNo := (g*31 + i) % pages
				var h *PageHandle
				var err error
				if g%2 == 0 {
					h, err = run.Read(pageNo, ^uint64(0))
				} else {
					h, err = pool.Fetch(hf, pageNo)
				}
				if err != nil {
					// Fetch may hit AllPinned transiently under contention;
					// that is a clean error, not a race.
					continue
				}
				served.Add(1)
				if !h.Page().ReadTuple(0, row) || row[0] != int64(pageNo) {
					t.Errorf("page %d: slot 0 holds %v", pageNo, row)
				}
				if i%7 == 0 {
					_ = pool.Stats()
				}
				if g%4 == 1 && i%5 == 0 {
					h.SetDirty()
				}
				h.Unpin()
				h.Unpin() // idempotent, including on scan-run handles
				if g%4 == 3 && i%11 == 0 {
					if err := pool.FlushAll(); err != nil {
						t.Error(err)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	st := pool.Stats()
	if st.Pinned != 0 {
		t.Errorf("pinned = %d after all handles released, want 0", st.Pinned)
	}
	if pool.PinnedCount() != 0 {
		t.Errorf("PinnedCount = %d, want 0", pool.PinnedCount())
	}
	if st.Hits+st.Misses != served.Load()+1 { // +1: the registering Fetch
		t.Errorf("hits %d + misses %d, want the %d accesses served", st.Hits, st.Misses, served.Load()+1)
	}
	if st.Resident > pool.Capacity() {
		t.Errorf("resident %d exceeds capacity %d", st.Resident, pool.Capacity())
	}
}

// TestFetchScanLeavesReplacementStateAlone pins the scan read's contract: a
// burst of ScanRun.Read traffic must not change the pool's resident set,
// tick-driven policy state, or eviction order — the property that keeps
// concurrent scans replay-deterministic.
func TestFetchScanLeavesReplacementStateAlone(t *testing.T) {
	const pages = 10
	hf := raceFile(t, pages)

	// Drive two pools through the same Fetch workload; interleave heavy
	// scan-read traffic into one of them. Their eviction logs must match.
	workload := []int{0, 1, 2, 3, 0, 1, 4, 5, 2, 6, 0, 7, 8, 1, 9, 3}
	run := func(scanNoise bool) []PageKey {
		pool := NewPool(PoolOptions{Capacity: 4, RecordEvictions: true})
		scan := pool.NewScanRun(hf)
		defer scan.Release()
		for i, pageNo := range workload {
			if scanNoise {
				for s := 0; s < 3; s++ {
					h, err := scan.Read((i*5+s)%pages, ^uint64(0))
					if err != nil {
						t.Fatal(err)
					}
					h.Unpin()
				}
			}
			h, err := pool.Fetch(hf, pageNo)
			if err != nil {
				t.Fatal(err)
			}
			h.Unpin()
		}
		return pool.EvictionLog()
	}
	clean, noisy := run(false), run(true)
	if len(clean) == 0 {
		t.Fatal("workload produced no evictions; test is vacuous")
	}
	if len(clean) != len(noisy) {
		t.Fatalf("eviction counts differ: %d vs %d", len(clean), len(noisy))
	}
	for i := range clean {
		if clean[i] != noisy[i] {
			t.Fatalf("eviction %d differs: %v vs %v", i, clean[i], noisy[i])
		}
	}
}

// TestFetchScanUnregisteredFile pins the no-registration contract: scanning a
// file the pool has never seen counts misses, with one read for the run,
// without registering it or inserting pages.
func TestFetchScanUnregisteredFile(t *testing.T) {
	hf := raceFile(t, 3)
	pool := NewPool(PoolOptions{Capacity: 4})
	run := pool.NewScanRun(hf)
	defer run.Release()
	for pageNo := 0; pageNo < 3; pageNo++ {
		h, err := run.Read(pageNo, 0b111>>pageNo)
		if err != nil {
			t.Fatal(err)
		}
		if !h.Missed() {
			t.Errorf("page %d: expected a miss on an unregistered file", pageNo)
		}
		h.Unpin()
	}
	st := pool.Stats()
	if st.Resident != 0 {
		t.Errorf("resident = %d, want 0 (scan reads insert no page)", st.Resident)
	}
	if st.Misses != 3 || st.Reads != 1 || st.PagesRead != 3 {
		t.Errorf("stats %+v, want 3 misses from one read of 3 pages", st)
	}
	if len(pool.files) != 0 {
		t.Errorf("the scanned file was registered")
	}
}

// TestBypassHandleSetDirtyPanics pins the read-only contract of handles a
// scan run serves.
func TestBypassHandleSetDirtyPanics(t *testing.T) {
	hf := raceFile(t, 1)
	pool := NewPool(PoolOptions{Capacity: 2})
	run := pool.NewScanRun(hf)
	defer run.Release()
	h, err := run.Read(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Unpin()
	defer func() {
		if recover() == nil {
			t.Error("SetDirty on a scan-run handle did not panic")
		}
	}()
	h.SetDirty()
}
