package storage

import (
	"fmt"
	"path/filepath"
	"testing"

	"ml4db/internal/obs"
)

// The micro tier for this layer: what one Pool.Fetch costs on a hit, on an
// LRU miss and on a learned (scored) miss, and one ScanRun.Read of a page the
// pool does not hold, in ns and allocations, with the pool full (steady
// state). The miss benchmarks cycle over more pages than the pool holds, so
// with or without a scorer every fetch misses and evicts, one pread each; a scan
// reads by the run (BenchmarkPoolFetchScanMiss reports preads per page).

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

// cyclicFetcher returns a func fetching hf's pages round-robin through pool —
// by Fetch, or by one scan run reading every page when scan is set — after
// filling the pool so the first call already runs at steady state. Both
// calls are direct, as in the executor, so the handle can stay on the stack.
func cyclicFetcher(tb testing.TB, pool *Pool, hf *HeapFile, scan bool) func() {
	tb.Helper()
	next, npages := 0, hf.NumPages()
	run := pool.NewScanRun(hf)
	tb.Cleanup(run.Release)
	fetch := func() {
		var h *PageHandle
		var err error
		if scan {
			h, err = run.Read(next%npages, ^uint64(0))
		} else {
			h, err = pool.Fetch(hf, next%npages)
		}
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

func benchFetch(b *testing.B, opts PoolOptions, npages int, scan bool) {
	fetch := cyclicFetcher(b, NewPool(opts), benchFile(b, npages), scan)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fetch()
	}
}

func BenchmarkPoolFetchHit(b *testing.B) {
	benchFetch(b, PoolOptions{Capacity: 128}, 128, false)
}

// The 4096-frame case is the O(1) check: ns/op must not grow with Capacity.
func BenchmarkPoolFetchMissLRU(b *testing.B) {
	for _, frames := range []int{128, 4096} {
		b.Run(fmt.Sprintf("frames=%d", frames), func(b *testing.B) {
			benchFetch(b, PoolOptions{Capacity: frames}, benchMissPages, false)
		})
	}
}

func BenchmarkPoolFetchMissLearned(b *testing.B) {
	benchFetch(b, PoolOptions{Capacity: 128, Scorer: Recency{}}, benchMissPages, false)
}

// A scan's read of a page the pool does not hold: served from the scan's run,
// which one pread stages per runPages pages. Reports the preads per page
// beside ns/op. metrics=true attaches a registry, as every engine pool has one:
// each read then also counts its miss, and each run its pread.
func BenchmarkPoolFetchScanMiss(b *testing.B) {
	for _, metrics := range []bool{false, true} {
		b.Run(fmt.Sprintf("metrics=%v", metrics), func(b *testing.B) {
			var reg *obs.Registry
			if metrics {
				reg = obs.NewRegistry()
			}
			pool := NewPool(PoolOptions{Capacity: 128, Metrics: reg})
			fetch := cyclicFetcher(b, pool, benchFile(b, benchMissPages), true)
			before := pool.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fetch()
			}
			b.StopTimer()
			st := pool.Stats()
			if st.Hits != before.Hits || st.Resident != before.Resident {
				b.Fatalf("a scan read hit or inserted: %+v", st)
			}
			if got := reg.Counter("storage.pool.misses").Value(); metrics && got != st.Misses {
				b.Fatalf("storage.pool.misses reads %d, Stats.Misses %d", got, st.Misses)
			}
			b.ReportMetric(float64(st.Reads-before.Reads)/float64(b.N), "reads/page")
		})
	}
}

// TestPoolFetchAllocContract pins the allocation contract: at steady state a
// fetch allocates nothing — no handle (it stays on the caller's stack), no
// page buffer, no candidate slice — on a hit, on an LRU miss, on a learned
// miss whose scorer does not allocate and on a scan read of a page the pool
// does not hold, with or without a metrics registry, and that does not change
// with Capacity.
func TestPoolFetchAllocContract(t *testing.T) {
	hf := benchFile(t, 1100)
	hot := benchFile(t, 128)
	for _, tc := range []struct {
		name string
		opts PoolOptions
		hf   *HeapFile
		scan bool
	}{
		{"hit/128", PoolOptions{Capacity: 128}, hot, false},
		{"lru-miss/128", PoolOptions{Capacity: 128}, hf, false},
		{"lru-miss/1024", PoolOptions{Capacity: 1024}, hf, false},
		{"learned-miss/128", PoolOptions{Capacity: 128, Scorer: Recency{}}, hf, false},
		{"learned-miss/1024", PoolOptions{Capacity: 1024, Scorer: Recency{}}, hf, false},
		{"scan-miss/128", PoolOptions{Capacity: 128}, hf, true},
		{"scan-miss/128+metrics", PoolOptions{Capacity: 128, Metrics: obs.NewRegistry()}, hf, true},
	} {
		pool := NewPool(tc.opts)
		fetch := cyclicFetcher(t, pool, tc.hf, tc.scan)
		before := pool.Stats()
		if allocs := testing.AllocsPerRun(2000, fetch); allocs > 0 {
			t.Errorf("%s: %v allocs per fetch, want 0", tc.name, allocs)
		}
		after := pool.Stats()
		if allHits := tc.hf == hot; (allHits && after.Misses != before.Misses) || (!allHits && after.Hits != before.Hits) {
			t.Errorf("%s: measured the wrong path: %+v -> %+v", tc.name, before, after)
		}
	}
}
