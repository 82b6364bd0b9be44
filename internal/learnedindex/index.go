package learnedindex

import (
	"math"
	"sort"

	"ml4db/internal/mlmath"
)

// Index is a read-only key-value index.
type Index interface {
	// Get returns the value for key, or ok == false if absent.
	Get(key int64) (value int64, ok bool)
	// Name identifies the index family.
	Name() string
	// SizeBytes estimates the index's memory footprint excluding the data
	// records themselves.
	SizeBytes() int
}

// Updatable is an index supporting inserts.
type Updatable interface {
	Index
	// Insert adds key → value. Inserting an existing key overwrites.
	Insert(key, value int64)
}

// KV is a key-value pair used for bulk loading.
type KV struct {
	Key, Value int64
}

// SortKVs sorts pairs by key in place.
func SortKVs(kvs []KV) {
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].Key < kvs[j].Key })
}

// KeyDist names a key distribution for index experiments.
type KeyDist int

// Key distributions for the E2/E3 experiments.
const (
	// DistUniform draws keys uniformly from a large domain.
	DistUniform KeyDist = iota
	// DistLognormal produces the heavily clustered keys that stress linear
	// models (long empty stretches plus dense regions).
	DistLognormal
	// DistZipfGap produces keys with Zipf-distributed gaps between
	// consecutive keys.
	DistZipfGap
)

// String implements fmt.Stringer.
func (d KeyDist) String() string {
	switch d {
	case DistUniform:
		return "uniform"
	case DistLognormal:
		return "lognormal"
	case DistZipfGap:
		return "zipfgap"
	default:
		return "unknown"
	}
}

// GenKeys generates n distinct sorted keys of the given distribution; the
// value of each key is its rank.
func GenKeys(rng *mlmath.RNG, dist KeyDist, n int) []KV {
	seen := make(map[int64]bool, n)
	keys := make([]int64, 0, n)
	switch dist {
	case DistUniform:
		for len(keys) < n {
			k := rng.Int63() % (int64(n) * 1000)
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	case DistLognormal:
		for len(keys) < n {
			k := int64(math.Exp(rng.NormFloat64()*2+10)) + rng.Int63()%7
			if k >= 0 && !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	case DistZipfGap:
		z := mlmath.NewZipf(rng, 1.3, 1000)
		k := int64(0)
		for len(keys) < n {
			k += int64(z.Draw()) + 1
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	kvs := make([]KV, n)
	for i, k := range keys {
		kvs[i] = KV{Key: k, Value: int64(i)}
	}
	return kvs
}

// searchRange binary-searches keys[lo:hi] (hi exclusive) for key and returns
// its index, or -1.
func searchRange(keys []int64, lo, hi int, key int64) int {
	if lo < 0 {
		lo = 0
	}
	if hi > len(keys) {
		hi = len(keys)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch {
		case keys[mid] < key:
			lo = mid + 1
		case keys[mid] > key:
			hi = mid
		default:
			return mid
		}
	}
	return -1
}

// clampInt limits x to [lo, hi].
func clampInt(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
