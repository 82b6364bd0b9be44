package storage

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"ml4db/internal/modelsvc"
	"ml4db/internal/obs"
)

// newPooledFile creates a heap file with npages pre-allocated pages, each
// seeded with one tuple {pageNo} so reads have something to verify.
func newPooledFile(t *testing.T, name string, npages int) *HeapFile {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	hf, err := CreateHeapFile(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hf.Close() })
	for i := 0; i < npages; i++ {
		if _, err := hf.AllocPage(); err != nil {
			t.Fatal(err)
		}
		p, err := hf.ReadPage(i)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := p.Insert([]int64{int64(i)}); !ok {
			t.Fatal("seed insert failed")
		}
		if err := hf.WritePage(p); err != nil {
			t.Fatal(err)
		}
		hf.noteInsert(i, []int64{int64(i)})
	}
	return hf
}

func fetchAndRelease(t *testing.T, p *Pool, hf *HeapFile, pageNo int) bool {
	t.Helper()
	h, err := p.Fetch(hf, pageNo)
	if err != nil {
		t.Fatalf("fetch page %d: %v", pageNo, err)
	}
	defer h.Unpin()
	row := make([]int64, 1)
	if !h.Page().ReadTuple(0, row) || row[0] != int64(pageNo) {
		t.Fatalf("page %d content = %v", pageNo, row)
	}
	return h.Missed()
}

func TestPoolHitsAndMisses(t *testing.T) {
	hf := newPooledFile(t, "t.heap", 3)
	reg := obs.NewRegistry()
	pool := NewPool(PoolOptions{Capacity: 4, Metrics: reg})
	if !fetchAndRelease(t, pool, hf, 0) {
		t.Fatal("cold fetch did not miss")
	}
	if fetchAndRelease(t, pool, hf, 0) {
		t.Fatal("warm fetch missed")
	}
	fetchAndRelease(t, pool, hf, 1)
	st := pool.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Resident != 2 || st.Pinned != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if reg.Counter("storage.pool.hits").Value() != 1 || reg.Counter("storage.pool.misses").Value() != 2 {
		t.Fatalf("metrics: hits=%d misses=%d",
			reg.Counter("storage.pool.hits").Value(), reg.Counter("storage.pool.misses").Value())
	}
	if reg.Histogram("storage.pool.reuse_dist", reuseBuckets).Count() != 1 {
		t.Fatalf("reuse histogram count = %d", reg.Histogram("storage.pool.reuse_dist", reuseBuckets).Count())
	}
}

func TestPoolEvictsLRU(t *testing.T) {
	hf := newPooledFile(t, "t.heap", 3)
	pool := NewPool(PoolOptions{Capacity: 2, RecordEvictions: true})
	fetchAndRelease(t, pool, hf, 0)
	fetchAndRelease(t, pool, hf, 1)
	fetchAndRelease(t, pool, hf, 0) // page 1 is now least recently used
	fetchAndRelease(t, pool, hf, 2) // must evict page 1
	want := []PageKey{{File: 0, Page: 1}}
	if got := pool.EvictionLog(); !reflect.DeepEqual(got, want) {
		t.Fatalf("eviction log = %v, want %v", got, want)
	}
	if fetchAndRelease(t, pool, hf, 0) {
		t.Fatal("page 0 was evicted")
	}
}

func TestPoolRefusesToEvictPinned(t *testing.T) {
	hf := newPooledFile(t, "t.heap", 3)
	pool := NewPool(PoolOptions{Capacity: 2, RecordEvictions: true})
	h0, err := pool.Fetch(hf, 0)
	if err != nil {
		t.Fatal(err)
	}
	h1, err := pool.Fetch(hf, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Both frames pinned: bringing in a third page must fail, not force out
	// a pinned page.
	_, err = pool.Fetch(hf, 2)
	if !errors.Is(err, ErrAllPinned) {
		t.Fatalf("all-pinned fetch: got %v, want ErrAllPinned", err)
	}
	var ap *AllPinnedError
	if !errors.As(err, &ap) || ap.Capacity != 2 {
		t.Fatalf("all-pinned detail: %v", err)
	}
	// Unpin page 0 (the older access): it becomes the only candidate.
	h0.Unpin()
	h2, err := pool.Fetch(hf, 2)
	if err != nil {
		t.Fatalf("fetch after unpin: %v", err)
	}
	h2.Unpin()
	h1.Unpin()
	want := []PageKey{{File: 0, Page: 0}}
	if got := pool.EvictionLog(); !reflect.DeepEqual(got, want) {
		t.Fatalf("eviction log = %v, want %v", got, want)
	}
	if n := pool.PinnedCount(); n != 0 {
		t.Fatalf("PinnedCount = %d after releasing everything", n)
	}
}

func TestPoolUnpinIdempotent(t *testing.T) {
	hf := newPooledFile(t, "t.heap", 1)
	pool := NewPool(PoolOptions{Capacity: 2})
	h, err := pool.Fetch(hf, 0)
	if err != nil {
		t.Fatal(err)
	}
	h.Unpin()
	h.Unpin()
	if n := pool.PinnedCount(); n != 0 {
		t.Fatalf("PinnedCount = %d", n)
	}
	// Double-unpin must not release someone else's pin.
	h2, err := pool.Fetch(hf, 0)
	if err != nil {
		t.Fatal(err)
	}
	h.Unpin()
	if n := pool.PinnedCount(); n != 1 {
		t.Fatalf("stale Unpin stole a pin: PinnedCount = %d", n)
	}
	h2.Unpin()
}

func TestPoolWritebackOnEviction(t *testing.T) {
	hf := newPooledFile(t, "t.heap", 2)
	pool := NewPool(PoolOptions{Capacity: 1})
	h, err := pool.Fetch(hf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := h.Page().Insert([]int64{77}); !ok {
		t.Fatal("insert failed")
	}
	h.SetDirty()
	h.Unpin()
	fetchAndRelease(t, pool, hf, 1) // evicts dirty page 0 → must write back
	st := pool.Stats()
	if st.Evictions != 1 || st.Writebacks != 1 {
		t.Fatalf("stats = %+v", st)
	}
	p, err := hf.ReadPage(0)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]int64, 1)
	if !p.ReadTuple(1, row) || row[0] != 77 {
		t.Fatalf("written-back tuple = %v", row)
	}
	// Fetched again through the pool, page 0 is read from disk once, with
	// the written bytes.
	h, err = pool.Fetch(hf, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Unpin()
	if !h.Missed() || !h.Page().ReadTuple(1, row) || row[0] != 77 {
		t.Fatalf("page 0 after its write-back: missed %v, slot 1 = %v, want the written 77", h.Missed(), row)
	}
	if got := pool.Stats().Reads - st.Reads; got != 1 {
		t.Fatalf("page 0 fetched again with %d reads, want 1", got)
	}
}

func TestPoolFlushFileWritesDirtyPages(t *testing.T) {
	hf := newPooledFile(t, "t.heap", 2)
	pool := NewPool(PoolOptions{Capacity: 4})
	h, err := pool.Fetch(hf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := h.Page().Insert([]int64{55}); !ok {
		t.Fatal("insert failed")
	}
	h.SetDirty()
	h.Unpin()
	if err := pool.FlushFile(hf); err != nil {
		t.Fatal(err)
	}
	p, err := hf.ReadPage(1)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]int64, 1)
	if !p.ReadTuple(1, row) || row[0] != 55 {
		t.Fatalf("flushed tuple = %v", row)
	}
	// Flushing again writes nothing: the dirty bit cleared.
	before := pool.Stats().Writebacks
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if after := pool.Stats().Writebacks; after != before {
		t.Fatalf("clean flush wrote %d pages", after-before)
	}
}

func TestPoolReleaseFileRefusesPinned(t *testing.T) {
	hf := newPooledFile(t, "t.heap", 2)
	pool := NewPool(PoolOptions{Capacity: 4})
	h, err := pool.Fetch(hf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.ReleaseFile(hf); !errors.Is(err, ErrAllPinned) {
		t.Fatalf("release with pin: got %v, want ErrAllPinned", err)
	}
	h.Unpin()
	if err := pool.ReleaseFile(hf); err != nil {
		t.Fatalf("release after unpin: %v", err)
	}
	if st := pool.Stats(); st.Resident != 0 {
		t.Fatalf("frames left after release: %+v", st)
	}
}

// accessPattern is a deterministic mixed workload touching npages pages.
func accessPattern(npages, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = (i*7 + i*i*3) % npages
	}
	return out
}

func runTrace(t *testing.T, scorer modelsvc.Predictor, name string, pattern []int, npages int) []PageKey {
	t.Helper()
	hf := newPooledFile(t, name, npages)
	pool := NewPool(PoolOptions{Capacity: 4, Scorer: scorer, RecordEvictions: true})
	for _, pno := range pattern {
		fetchAndRelease(t, pool, hf, pno)
	}
	return pool.EvictionLog()
}

func TestPoolReplayDeterminism(t *testing.T) {
	pattern := accessPattern(12, 400)
	for _, tc := range []struct {
		name   string
		scorer modelsvc.Predictor
	}{
		{"lru", nil},
		{"learned-recency", Recency{}},
	} {
		a := runTrace(t, tc.scorer, tc.name+"-a.heap", pattern, 12)
		b := runTrace(t, tc.scorer, tc.name+"-b.heap", pattern, 12)
		if len(a) == 0 {
			t.Fatalf("%s: workload produced no evictions", tc.name)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: eviction logs diverge:\n%v\n%v", tc.name, a, b)
		}
	}
}

// TestPoolPolicySeesAccessOrder: every Fetch, hit or miss, is one access
// in the frame's history, in access order — the last and previous tick and
// the count a scorer reads.
func TestPoolPolicySeesAccessOrder(t *testing.T) {
	hf := newPooledFile(t, "t.heap", 2)
	pool := NewPool(PoolOptions{Capacity: 4})
	var hits []bool
	for _, pageNo := range []int{0, 1, 0} {
		hits = append(hits, !fetchAndRelease(t, pool, hf, pageNo))
	}
	if want := []bool{false, false, true}; !reflect.DeepEqual(hits, want) {
		t.Fatalf("hits = %v, want %v", hits, want)
	}
	if got, want := frameState(pool), " {0 1}@2/0/1x/0 {0 0}@3/1/2x/0"; got != want {
		t.Fatalf("frames = %q, want %q", got, want)
	}
}
