package learnedindex

import (
	"slices"
	"testing"
	"testing/quick"

	"ml4db/internal/mlmath"
)

func genSorted(t *testing.T, dist KeyDist, n int, seed uint64) []KV {
	t.Helper()
	return GenKeys(mlmath.NewRNG(seed), dist, n)
}

func TestGenKeysSortedUnique(t *testing.T) {
	for _, dist := range []KeyDist{DistUniform, DistLognormal, DistZipfGap} {
		kvs := genSorted(t, dist, 5000, 1)
		if len(kvs) != 5000 {
			t.Fatalf("%v: got %d keys", dist, len(kvs))
		}
		for i := 1; i < len(kvs); i++ {
			if kvs[i].Key <= kvs[i-1].Key {
				t.Fatalf("%v: keys not strictly increasing at %d", dist, i)
			}
		}
	}
}

// buildAll constructs every index over the same data.
func buildAll(kvs []KV) []Index {
	return []Index{
		BulkLoadBTree(kvs),
		BuildRMI(kvs, 64),
		BuildPGM(kvs, 32),
		BuildRadixSpline(kvs, 32, 14),
		BuildAlex(kvs),
	}
}

func TestAllIndexesFindEveryKey(t *testing.T) {
	for _, dist := range []KeyDist{DistUniform, DistLognormal, DistZipfGap} {
		kvs := genSorted(t, dist, 10000, 2)
		for _, idx := range buildAll(kvs) {
			for _, kv := range kvs {
				v, ok := idx.Get(kv.Key)
				if !ok || v != kv.Value {
					t.Fatalf("%s/%v: Get(%d) = (%d, %v), want (%d, true)",
						idx.Name(), dist, kv.Key, v, ok, kv.Value)
				}
			}
		}
	}
}

func TestAllIndexesRejectAbsentKeys(t *testing.T) {
	kvs := genSorted(t, DistUniform, 5000, 3)
	present := make(map[int64]bool, len(kvs))
	for _, kv := range kvs {
		present[kv.Key] = true
	}
	rng := mlmath.NewRNG(4)
	for _, idx := range buildAll(kvs) {
		misses := 0
		for i := 0; i < 2000; i++ {
			k := rng.Int63() % (int64(len(kvs)) * 1000)
			if present[k] {
				continue
			}
			misses++
			if _, ok := idx.Get(k); ok {
				t.Fatalf("%s: found absent key %d", idx.Name(), k)
			}
		}
		if misses == 0 {
			t.Fatal("test generated no absent keys")
		}
	}
}

func TestBTreeInsertAndLookup(t *testing.T) {
	bt := NewBTree()
	rng := mlmath.NewRNG(5)
	ref := map[int64]int64{}
	for i := 0; i < 20000; i++ {
		k := rng.Int63() % 100000
		v := int64(i)
		bt.Insert(k, v)
		ref[k] = v
	}
	if bt.Len() != len(ref) {
		t.Errorf("Len = %d, want %d", bt.Len(), len(ref))
	}
	for k, v := range ref {
		got, ok := bt.Get(k)
		if !ok || got != v {
			t.Fatalf("Get(%d) = (%d, %v), want (%d, true)", k, got, ok, v)
		}
	}
	if bt.Height() < 2 {
		t.Errorf("height = %d after 20k inserts", bt.Height())
	}
}

func TestBTreeRange(t *testing.T) {
	kvs := make([]KV, 100)
	for i := range kvs {
		kvs[i] = KV{Key: int64(i * 10), Value: int64(i)}
	}
	bt := BulkLoadBTree(kvs)
	got := bt.Range(95, 205, 0)
	// Keys 100..200 → values 10..20.
	if len(got) != 11 {
		t.Fatalf("range len = %d, want 11 (%v)", len(got), got)
	}
	for i, v := range got {
		if v != int64(10+i) {
			t.Errorf("range[%d] = %d", i, v)
		}
	}
	if lim := bt.Range(0, 1000, 5); len(lim) != 5 {
		t.Errorf("limited range len = %d", len(lim))
	}
}

func TestRMIFitDifficultyOrdering(t *testing.T) {
	// A linear-root RMI fits a uniform CDF far better than a lognormal one —
	// the accuracy-depends-on-learnability behavior §3.2 discusses.
	uni := BuildRMI(genSorted(t, DistUniform, 20000, 6), 128)
	logn := BuildRMI(genSorted(t, DistLognormal, 20000, 6), 128)
	if uni.MaxError() >= logn.MaxError() {
		t.Errorf("uniform max error %d should be below lognormal %d", uni.MaxError(), logn.MaxError())
	}
	if uni.NumLeaves() != 128 {
		t.Errorf("leaves = %d", uni.NumLeaves())
	}
	if uni.MaxError() > 2000 {
		t.Errorf("uniform max error %d is implausibly large", uni.MaxError())
	}
}

func TestRMISmallerThanBTree(t *testing.T) {
	kvs := genSorted(t, DistUniform, 50000, 7)
	bt := BulkLoadBTree(kvs)
	r := BuildRMI(kvs, 256)
	if r.SizeBytes() >= bt.SizeBytes()/10 {
		t.Errorf("RMI size %d not ≪ B-tree size %d", r.SizeBytes(), bt.SizeBytes())
	}
}

func TestRMIStaleLookupMissesAfterInserts(t *testing.T) {
	// E3's mechanism: a static RMI over the original data can miss keys once
	// the array has grown underneath it.
	kvs := genSorted(t, DistUniform, 20000, 8)
	r := BuildRMI(kvs, 256)
	// Insert 20000 new keys into the sorted arrays (not the model).
	rng := mlmath.NewRNG(9)
	grown := make([]KV, len(kvs))
	copy(grown, kvs)
	for i := 0; i < 20000; i++ {
		grown = append(grown, KV{Key: rng.Int63() % (int64(len(kvs)) * 1000), Value: -1})
	}
	SortKVs(grown)
	grown = slices.CompactFunc(grown, func(a, b KV) bool { return a.Key == b.Key })
	keys := make([]int64, len(grown))
	vals := make([]int64, len(grown))
	for i, kv := range grown {
		keys[i] = kv.Key
		vals[i] = kv.Value
	}
	misses := 0
	for _, kv := range grown {
		if _, ok := r.StaleLookup(keys, vals, kv.Key); !ok {
			misses++
		}
	}
	if misses == 0 {
		t.Error("stale RMI should miss keys after 100% growth (robustness failure)")
	}
}

func TestPGMSegmentsRespectEpsilonTradeoff(t *testing.T) {
	kvs := genSorted(t, DistLognormal, 30000, 10)
	small := BuildPGM(kvs, 8)
	large := BuildPGM(kvs, 128)
	if small.NumSegments() <= large.NumSegments() {
		t.Errorf("ε=8 gives %d segments, ε=128 gives %d; expected more segments for smaller ε",
			small.NumSegments(), large.NumSegments())
	}
}

func TestPGMInsertsThroughDeltaAndMerge(t *testing.T) {
	kvs := genSorted(t, DistUniform, 5000, 11)
	p := BuildPGM(kvs, 16)
	rng := mlmath.NewRNG(12)
	added := map[int64]int64{}
	for i := 0; i < 3000; i++ { // exceeds maxDelta → forces merges
		k := rng.Int63()%10000000 + 100000000
		p.Insert(k, int64(i))
		added[k] = int64(i)
	}
	for k, v := range added {
		got, ok := p.Get(k)
		if !ok || got != v {
			t.Fatalf("after merge: Get(%d) = (%d, %v), want (%d, true)", k, got, ok, v)
		}
	}
	// Original keys still present.
	for _, kv := range kvs[:500] {
		if _, ok := p.Get(kv.Key); !ok {
			t.Fatalf("original key %d lost after merges", kv.Key)
		}
	}
}

func TestPGMInsertOverwrites(t *testing.T) {
	p := BuildPGM([]KV{{1, 10}, {5, 50}}, 4)
	p.Insert(5, 99)
	if v, ok := p.Get(5); !ok || v != 99 {
		t.Errorf("overwrite: Get(5) = (%d, %v)", v, ok)
	}
}

func TestRadixSplineSplinePointTradeoff(t *testing.T) {
	kvs := genSorted(t, DistZipfGap, 30000, 13)
	tight := BuildRadixSpline(kvs, 4, 14)
	loose := BuildRadixSpline(kvs, 256, 14)
	if tight.NumSplinePoints() <= loose.NumSplinePoints() {
		t.Errorf("maxErr=4: %d points, maxErr=256: %d points",
			tight.NumSplinePoints(), loose.NumSplinePoints())
	}
}

func TestAlexInsertHeavy(t *testing.T) {
	a := NewAlex()
	rng := mlmath.NewRNG(14)
	ref := map[int64]int64{}
	for i := 0; i < 30000; i++ {
		k := rng.Int63() % 1000000
		a.Insert(k, int64(i))
		ref[k] = int64(i)
	}
	if a.Len() != len(ref) {
		t.Errorf("Len = %d, want %d", a.Len(), len(ref))
	}
	for k, v := range ref {
		got, ok := a.Get(k)
		if !ok || got != v {
			t.Fatalf("Get(%d) = (%d, %v), want (%d, true)", k, got, ok, v)
		}
	}
	if a.NumLeaves() < 10 {
		t.Errorf("expected many leaf splits, got %d leaves", a.NumLeaves())
	}
}

func TestAlexMixedBulkAndInsert(t *testing.T) {
	kvs := genSorted(t, DistUniform, 10000, 15)
	a := BuildAlex(kvs)
	rng := mlmath.NewRNG(16)
	ref := map[int64]int64{}
	for _, kv := range kvs {
		ref[kv.Key] = kv.Value
	}
	for i := 0; i < 10000; i++ {
		k := rng.Int63() % (int64(len(kvs)) * 1000)
		a.Insert(k, int64(1000000+i))
		ref[k] = int64(1000000 + i)
	}
	for k, v := range ref {
		got, ok := a.Get(k)
		if !ok || got != v {
			t.Fatalf("Get(%d) = (%d, %v), want (%d, true)", k, got, ok, v)
		}
	}
}

func TestAlexSequentialInsert(t *testing.T) {
	// Monotonic append is the classic adversarial pattern for gapped arrays.
	a := NewAlex()
	for i := int64(0); i < 5000; i++ {
		a.Insert(i, i*2)
	}
	for i := int64(0); i < 5000; i++ {
		v, ok := a.Get(i)
		if !ok || v != i*2 {
			t.Fatalf("Get(%d) = (%d, %v)", i, v, ok)
		}
	}
}

// Property: for any random key set, every index agrees with a reference map.
func TestIndexAgreementProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := mlmath.NewRNG(seed)
		n := 100 + rng.Intn(2000)
		kvs := GenKeys(rng, KeyDist(rng.Intn(3)), n)
		probeKeys := make([]int64, 200)
		for i := range probeKeys {
			if rng.Float64() < 0.5 {
				probeKeys[i] = kvs[rng.Intn(n)].Key
			} else {
				probeKeys[i] = rng.Int63() % (int64(n) * 1000)
			}
		}
		ref := make(map[int64]int64, n)
		for _, kv := range kvs {
			ref[kv.Key] = kv.Value
		}
		for _, idx := range buildAll(kvs) {
			for _, k := range probeKeys {
				want, wantOK := ref[k]
				got, ok := idx.Get(k)
				if ok != wantOK || (ok && got != want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestEmptyIndexes(t *testing.T) {
	for _, idx := range buildAll(nil) {
		if _, ok := idx.Get(42); ok {
			t.Errorf("%s: found key in empty index", idx.Name())
		}
		if idx.SizeBytes() < 0 {
			t.Errorf("%s: negative size", idx.Name())
		}
	}
}
