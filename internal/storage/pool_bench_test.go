package storage

import (
	"fmt"
	"path/filepath"
	"testing"
)

// The micro tier for this layer: what one Pool.Fetch costs on a hit, on an
// LRU miss and on a learned-policy miss, in ns and allocations, with the
// pool full (steady state). The miss benchmarks cycle over more pages than
// the pool holds, so under either policy every fetch misses and evicts.

const benchMissPages = 8192

// benchFile returns a heap file of npages empty pages.
func benchFile(tb testing.TB, npages int) *HeapFile {
	tb.Helper()
	hf, err := CreateHeapFile(filepath.Join(tb.TempDir(), "bench.heap"), 1)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = hf.Close() })
	for i := 0; i < npages; i++ {
		if _, err := hf.AllocPage(); err != nil {
			tb.Fatal(err)
		}
	}
	return hf
}

// cyclicFetcher returns a func fetching hf's pages round-robin through pool,
// after filling the pool so the first call already runs at steady state.
func cyclicFetcher(tb testing.TB, pool *Pool, hf *HeapFile) func() {
	tb.Helper()
	next, npages := 0, hf.NumPages()
	fetch := func() {
		h, err := pool.Fetch(hf, next%npages)
		if err != nil {
			tb.Fatal(err)
		}
		h.Unpin()
		next++
	}
	for i := 0; i < pool.Capacity(); i++ {
		fetch()
	}
	return fetch
}

func benchFetch(b *testing.B, opts PoolOptions, npages int) {
	fetch := cyclicFetcher(b, NewPool(opts), benchFile(b, npages))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fetch()
	}
}

func BenchmarkPoolFetchHit(b *testing.B) {
	benchFetch(b, PoolOptions{Capacity: 128}, 128)
}

// The 4096-frame case is the O(1) check: ns/op must not grow with Capacity.
func BenchmarkPoolFetchMissLRU(b *testing.B) {
	for _, frames := range []int{128, 4096} {
		b.Run(fmt.Sprintf("frames=%d", frames), func(b *testing.B) {
			benchFetch(b, PoolOptions{Capacity: frames}, benchMissPages)
		})
	}
}

func BenchmarkPoolFetchMissLearned(b *testing.B) {
	benchFetch(b, PoolOptions{Capacity: 128, Policy: NewLearnedPolicy(Recency{})}, benchMissPages)
}

// TestPoolFetchAllocContract pins the allocation contract: at steady state a
// fetch allocates its PageHandle and nothing else — no page buffer, no
// candidate slice — on a hit, on an LRU miss and on a learned miss whose
// scorer does not allocate, and that does not change with Capacity.
func TestPoolFetchAllocContract(t *testing.T) {
	hf := benchFile(t, 1100)
	hot := benchFile(t, 128)
	for _, tc := range []struct {
		name string
		opts PoolOptions
		hf   *HeapFile
	}{
		{"hit/128", PoolOptions{Capacity: 128}, hot},
		{"lru-miss/128", PoolOptions{Capacity: 128}, hf},
		{"lru-miss/1024", PoolOptions{Capacity: 1024}, hf},
		{"learned-miss/128", PoolOptions{Capacity: 128, Policy: NewLearnedPolicy(Recency{})}, hf},
		{"learned-miss/1024", PoolOptions{Capacity: 1024, Policy: NewLearnedPolicy(Recency{})}, hf},
	} {
		pool := NewPool(tc.opts)
		fetch := cyclicFetcher(t, pool, tc.hf)
		before := pool.Stats()
		if allocs := testing.AllocsPerRun(2000, fetch); allocs > 1 {
			t.Errorf("%s: %v allocs per fetch, want at most 1 (the handle)", tc.name, allocs)
		}
		after := pool.Stats()
		if allHits := tc.hf == hot; (allHits && after.Misses != before.Misses) || (!allHits && after.Hits != before.Hits) {
			t.Errorf("%s: measured the wrong path: %+v -> %+v", tc.name, before, after)
		}
	}
}
