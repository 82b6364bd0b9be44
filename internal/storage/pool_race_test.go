package storage

import (
	"path/filepath"
	"sync"
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

// TestPoolConcurrentFetchScan is the satellite race audit: concurrent
// Fetch, FetchScan, Unpin, Stats and PinnedCount must be free of
// data races (run under -race) and must never tear the stats — hits+misses
// equals the number of successful fetches, and no pins leak.
func TestPoolConcurrentFetchScan(t *testing.T) {
	const pages, goroutines, iters = 12, 8, 200
	hf := raceFile(t, pages)
	pool := NewPool(PoolOptions{Capacity: 6})
	// Register the file deterministically before the concurrent phase so
	// FetchScan's registered-file path is exercised.
	h, err := pool.Fetch(hf, 0)
	if err != nil {
		t.Fatal(err)
	}
	h.Unpin()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				pageNo := (g*31 + i) % pages
				var h *PageHandle
				var err error
				if g%2 == 0 {
					h, err = pool.FetchScan(hf, pageNo)
				} else {
					h, err = pool.Fetch(hf, pageNo)
				}
				if err != nil {
					// Fetch may hit AllPinned transiently under contention;
					// that is a clean error, not a race.
					continue
				}
				if p := h.Page(); p.NumSlots() == 0 {
					t.Errorf("page %d has no slots", pageNo)
				}
				if i%7 == 0 {
					_ = pool.Stats()
				}
				h.Unpin()
				h.Unpin() // idempotent, including on bypass handles
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
	if st.Hits+st.Misses == 0 {
		t.Error("no accesses recorded")
	}
	if st.Resident > pool.Capacity() {
		t.Errorf("resident %d exceeds capacity %d", st.Resident, pool.Capacity())
	}
}

// TestFetchScanLeavesReplacementStateAlone pins the bypass contract: a burst
// of FetchScan traffic must not change the pool's resident set, tick-driven
// policy state, or eviction order — the property that keeps concurrent scans
// replay-deterministic.
func TestFetchScanLeavesReplacementStateAlone(t *testing.T) {
	const pages = 10
	hf := raceFile(t, pages)

	// Drive two pools through the same Fetch workload; interleave heavy
	// FetchScan traffic into one of them. Their eviction logs must match.
	workload := []int{0, 1, 2, 3, 0, 1, 4, 5, 2, 6, 0, 7, 8, 1, 9, 3}
	run := func(scanNoise bool) []PageKey {
		pool := NewPool(PoolOptions{Capacity: 4, RecordEvictions: true})
		for i, pageNo := range workload {
			if scanNoise {
				for s := 0; s < 3; s++ {
					h, err := pool.FetchScan(hf, (i*5+s)%pages)
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
// file the pool has never seen counts misses without registering it or
// inserting pages.
func TestFetchScanUnregisteredFile(t *testing.T) {
	hf := raceFile(t, 3)
	pool := NewPool(PoolOptions{Capacity: 4})
	for pageNo := 0; pageNo < 3; pageNo++ {
		h, err := pool.FetchScan(hf, pageNo)
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
		t.Errorf("resident = %d, want 0 (bypass pages are never inserted)", st.Resident)
	}
	if st.Misses != 3 {
		t.Errorf("misses = %d, want 3", st.Misses)
	}
}

// TestBypassHandleSetDirtyPanics pins the read-only contract of scan handles.
func TestBypassHandleSetDirtyPanics(t *testing.T) {
	hf := raceFile(t, 1)
	pool := NewPool(PoolOptions{Capacity: 2})
	h, err := pool.FetchScan(hf, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Unpin()
	defer func() {
		if recover() == nil {
			t.Error("SetDirty on a bypass handle did not panic")
		}
	}()
	h.SetDirty()
}
