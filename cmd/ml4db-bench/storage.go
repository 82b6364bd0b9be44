package main

// The storage suite exercises the internal/storage disk-backed engine.
//
//   - larger-than-memory scan: a heap table many times bigger than the
//     buffer pool must scan to exactly the right row count and column sums,
//     evicting along the way and leaving zero pinned frames;
//   - LRU vs learned eviction: a scan-flood workload (a small hot set
//     re-read every round while a stream of cold pages floods the pool)
//     where LRU keeps evicting the hot set but a scorer trained on the
//     access trace learns to keep it. The trained candidate must be
//     promoted by the canary gate (it beats the LRU-equivalent Recency
//     incumbent on shadow error), a deliberately bad candidate must be
//     rejected, and the promoted policy's hit rate must beat LRU's on the
//     same trace;
//   - replay determinism: the same trace through fresh pools produces
//     bit-identical eviction logs, for the LRU and the learned policy both.
//
// Any violated contract fails the suite; check.sh runs the -quick variant as
// a smoke test.

import (
	"fmt"
	"path/filepath"

	"ml4db/internal/storage"
)

type storageReport struct {
	ScanPages     int   `json:"scan_pages"`
	ScanRows      int   `json:"scan_rows"`
	PoolFrames    int   `json:"pool_frames"`
	ScanEvictions int64 `json:"scan_evictions"`
	ScanCorrect   bool  `json:"scan_correct"`

	TraceLen       int     `json:"trace_len"`
	TraceSamples   int     `json:"trace_samples"`
	GatePromotions int     `json:"gate_promotions"`
	GateRejections int     `json:"gate_rejections"`
	GateVersion    int     `json:"gate_version"`
	LRUHitRate     float64 `json:"lru_hit_rate"`
	LearnedHitRate float64 `json:"learned_hit_rate"`
	HotHitLRU      float64 `json:"hot_hit_rate_lru"`
	HotHitLearned  float64 `json:"hot_hit_rate_learned"`
	LearnedWins    bool    `json:"learned_beats_lru"`

	ReplayEvictions int  `json:"replay_evictions"`
	ReplayIdentical bool `json:"replay_identical"`
}

// floodTrace builds the scan-flood access pattern: per round, two groups of
// [each hot page once, then a flood of fresh cold pages read twice
// back-to-back]. The flood puts more distinct pages between consecutive hot
// touches than the pool holds, so LRU evicts the entire hot set every group
// and rereads it cold. Forward reuse distance is learnable from access
// history — hot pages accumulate counts and periodic gaps, cold pages stay
// at one burst — so a trained scorer keeps the hot set where LRU cannot.
func floodTrace(hotN, coldPerRound, rounds int) (trace []int, npages int) {
	next := hotN
	for r := 0; r < rounds; r++ {
		for g := 0; g < 2; g++ {
			for h := 0; h < hotN; h++ {
				trace = append(trace, h)
			}
			for c := 0; c < coldPerRound/2; c++ {
				trace = append(trace, next, next)
				next++
			}
		}
	}
	return trace, next
}

// driveTrace replays page accesses through the pool, reporting overall and
// hot-set hit rates.
func driveTrace(p *storage.Pool, hf *storage.HeapFile, trace []int, hotN int) (hit, hotHit float64, err error) {
	var hits, hotHits, hotAccesses int
	for _, pg := range trace {
		h, err := p.Fetch(hf, pg)
		if err != nil {
			return 0, 0, err
		}
		miss := h.Missed()
		h.Unpin()
		if !miss {
			hits++
		}
		if pg < hotN {
			hotAccesses++
			if !miss {
				hotHits++
			}
		}
	}
	if len(trace) > 0 {
		hit = float64(hits) / float64(len(trace))
	}
	if hotAccesses > 0 {
		hotHit = float64(hotHits) / float64(hotAccesses)
	}
	return hit, hotHit, nil
}

func storageSuite(seed uint64, quick bool, _ string) (any, error) {
	dir, cleanup, err := scratchDir()
	if err != nil {
		return nil, err
	}
	defer cleanup()

	var rep storageReport

	// Larger-than-memory scan: fill a table far past pool capacity, reopen
	// it behind a small pool, and verify the scan byte-for-byte.
	const frames = 16
	pages := 160
	rounds := 40
	window := 200
	if quick {
		pages, rounds, window = 48, 15, 100
	}
	nrows := pages * storage.SlotsPerPage(2)
	tablePath := filepath.Join(dir, "big.tbl")
	build, err := storage.CreateTableFile(tablePath, 2, storage.NewPool(storage.PoolOptions{Capacity: frames}))
	if err != nil {
		return nil, err
	}
	for i := 0; i < nrows; i++ {
		if _, err := build.AppendRow([]int64{int64(i), int64(3*i + 1)}); err != nil {
			return nil, err
		}
	}
	if err := build.Close(); err != nil {
		return nil, err
	}
	scanPool := storage.NewPool(storage.PoolOptions{Capacity: frames})
	tf, err := storage.OpenTableFile(tablePath, 2, scanPool)
	if err != nil {
		return nil, err
	}
	var rows int
	var sumA, sumB int64
	if err := tf.Scan(func(rowID int64, row []int64) error {
		rows++
		sumA += row[0]
		sumB += row[1]
		return nil
	}); err != nil {
		return nil, err
	}
	n := int64(nrows)
	wantA := n * (n - 1) / 2
	wantB := 3*wantA + n
	st := scanPool.Stats()
	rep.ScanPages = tf.NumPages()
	rep.ScanRows = rows
	rep.PoolFrames = frames
	rep.ScanEvictions = st.Evictions
	rep.ScanCorrect = rows == nrows && sumA == wantA && sumB == wantB &&
		st.Resident <= frames && st.Pinned == 0 && st.Evictions > 0
	if !rep.ScanCorrect {
		return nil, fmt.Errorf("larger-than-memory scan broken: rows=%d/%d sums=(%d,%d)/(%d,%d) stats=%+v",
			rows, nrows, sumA, sumB, wantA, wantB, st)
	}
	if tf.NumPages() <= frames {
		return nil, fmt.Errorf("table fits in the pool (%d pages, %d frames); the scan proves nothing", tf.NumPages(), frames)
	}
	if err := tf.Close(); err != nil {
		return nil, err
	}

	// Eviction workload: train a scorer on the flood trace, gate it against
	// the Recency incumbent, and race the promoted policy against LRU.
	const hotN, coldPerRound, evictFrames = 4, 12, 8
	trace, npages := floodTrace(hotN, coldPerRound, rounds)
	rep.TraceLen = len(trace)
	keys := make([]storage.PageKey, len(trace))
	for i, pg := range trace {
		keys[i] = storage.PageKey{File: 1, Page: uint32(pg)}
	}
	samples := storage.TraceSamples(keys, 0)
	rep.TraceSamples = len(samples)
	scorer, err := storage.TrainScorer(samples, seed, 30, nil)
	if err != nil {
		return nil, err
	}
	gate := storage.NewGate(storage.GateOptions{Window: window})
	gate.SetCandidate(scorer, 1)
	promotions, _ := gate.ObserveSamples(samples)
	rep.GatePromotions = promotions
	if promotions < 1 || gate.Version() != 1 {
		return nil, fmt.Errorf("trained scorer not promoted (promotions=%d version=%d): it should beat Recency on the flood trace",
			promotions, gate.Version())
	}
	// A constant scorer — the same reuse distance for every page — must
	// shadow and lose: same samples, no promotion.
	gate.SetCandidate(predictorFunc(func([]float64) float64 { return 1e6 }), 2)
	_, rejections := gate.ObserveSamples(samples)
	rep.GateRejections = rejections
	rep.GateVersion = gate.Version()
	if rejections < 1 || gate.Version() != 1 {
		return nil, fmt.Errorf("bad candidate not rejected (rejections=%d version=%d)", rejections, gate.Version())
	}

	tracePath := filepath.Join(dir, "trace.heap")
	hf, err := storage.CreateHeapFile(tracePath, 1)
	if err != nil {
		return nil, err
	}
	for p := 0; p < npages; p++ {
		if _, err := hf.AllocPage(); err != nil {
			return nil, err
		}
	}
	defer hf.Close()

	run := func(policy storage.Policy, record bool) (*storage.Pool, float64, float64, error) {
		pool := storage.NewPool(storage.PoolOptions{Capacity: evictFrames, Policy: policy, RecordEvictions: record})
		hit, hotHit, err := driveTrace(pool, hf, trace, hotN)
		return pool, hit, hotHit, err
	}
	_, rep.LRUHitRate, rep.HotHitLRU, err = run(nil, false)
	if err != nil {
		return nil, err
	}
	_, rep.LearnedHitRate, rep.HotHitLearned, err = run(storage.NewLearnedPolicy(gate), false)
	if err != nil {
		return nil, err
	}
	rep.LearnedWins = rep.LearnedHitRate > rep.LRUHitRate
	if !rep.LearnedWins {
		return nil, fmt.Errorf("promoted policy does not beat LRU: learned %.3f vs lru %.3f",
			rep.LearnedHitRate, rep.LRUHitRate)
	}

	// Replay determinism: identical traces through fresh pools must evict
	// the identical sequence, whichever policy is driving.
	for _, policy := range []func() storage.Policy{
		func() storage.Policy { return nil },
		func() storage.Policy { return storage.NewLearnedPolicy(gate) },
	} {
		a, _, _, err := run(policy(), true)
		if err != nil {
			return nil, err
		}
		b, _, _, err := run(policy(), true)
		if err != nil {
			return nil, err
		}
		la, lb := a.EvictionLog(), b.EvictionLog()
		if len(la) == 0 || len(la) != len(lb) {
			return nil, fmt.Errorf("replay eviction logs differ in length: %d vs %d", len(la), len(lb))
		}
		for i := range la {
			if la[i] != lb[i] {
				return nil, fmt.Errorf("replay diverges at eviction %d: %v vs %v", i, la[i], lb[i])
			}
		}
		rep.ReplayEvictions = len(la)
	}
	rep.ReplayIdentical = true

	fmt.Printf("%-24s pages %d  frames %d  rows %d  evictions %d  correct %v\n",
		"scan_oversized", rep.ScanPages, rep.PoolFrames, rep.ScanRows, rep.ScanEvictions, rep.ScanCorrect)
	fmt.Printf("%-24s promotions %d  rejections %d  serving v%d\n",
		"eviction_gate", rep.GatePromotions, rep.GateRejections, rep.GateVersion)
	fmt.Printf("%-24s lru %.3f  learned %.3f  hot-set %.3f vs %.3f\n",
		"hit_rates", rep.LRUHitRate, rep.LearnedHitRate, rep.HotHitLRU, rep.HotHitLearned)
	fmt.Printf("%-24s evictions %d  identical %v\n",
		"replay", rep.ReplayEvictions, rep.ReplayIdentical)
	return rep, nil
}
