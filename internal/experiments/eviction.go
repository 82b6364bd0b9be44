package experiments

import (
	"errors"
	"os"
	"path/filepath"
	"slices"

	"ml4db/internal/modelsvc"
	"ml4db/internal/storage"
)

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
// hot-set hit rates (the hot set is pages [0, hotN)).
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
	return float64(hits) / float64(len(trace)), float64(hotHits) / float64(hotAccesses), nil
}

// constScorer predicts the same reuse distance for every page: the candidate
// the gate must reject.
type constScorer float64

func (c constScorer) Predict([]float64) float64 { return float64(c) }

// E25 evaluates learned buffer-pool eviction behind the canary gate: a
// larger-than-memory scan shows the pool itself is sound, then a scorer
// trained on a scan-flood trace must be promoted over the LRU-equivalent
// Recency incumbent, a constant scorer rejected, the promoted policy must beat
// LRU's hit rate on the same trace, and the eviction sequence must replay
// bit-identically under either policy.
func E25(seed uint64) (*Report, error) {
	r := newReport("E25", "Learned buffer-pool eviction behind a canary gate (§2 learned DB components)",
		"a forward-reuse-distance scorer trained on traces beats LRU on scan-flood access patterns, and canary gating makes deploying it safe — a worse candidate can never reach the live pool")
	dir, err := os.MkdirTemp("", "ml4db-e25-*")
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(dir) }() // best-effort: the OS reaps its temp dir anyway

	// Larger-than-memory scan: fill a table far past pool capacity, reopen it
	// behind a small pool, and verify the scan's row count and column sums.
	const frames, pages = 16, 160
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
	scanErr := tf.Scan(func(rowID int64, row []int64) error {
		rows++
		sumA += row[0]
		sumB += row[1]
		return nil
	})
	st, scanPages := scanPool.Stats(), tf.NumPages()
	if err := errors.Join(scanErr, tf.Close()); err != nil {
		return nil, err
	}
	n := int64(nrows)
	wantA := n * (n - 1) / 2
	sumsExact := sumA == wantA && sumB == 3*wantA+n
	scanOK := rows == nrows && sumsExact &&
		scanPages > frames && st.Resident <= frames && st.Pinned == 0 && st.Evictions > 0
	r.rowf("larger-than-memory scan: %d pages / %d rows through %d frames", scanPages, rows, frames)
	r.rowf("  evictions %d, pins leaked %d, scan sums exact %v", st.Evictions, st.Pinned, sumsExact)

	// Train a scorer on the flood trace and gate it against the Recency
	// incumbent; then a constant scorer must shadow and lose on the same
	// samples.
	const hotN, coldPerRound, rounds, evictFrames = 4, 12, 40, 8
	trace, npages := floodTrace(hotN, coldPerRound, rounds)
	keys := make([]storage.PageKey, len(trace))
	for i, pg := range trace {
		keys[i] = storage.PageKey{File: 1, Page: uint32(pg)}
	}
	samples := storage.TraceSamples(keys, 0)
	scorer, err := storage.TrainScorer(samples, seed, 30, nil)
	if err != nil {
		return nil, err
	}
	roll := storage.NewScorerRollout(200)
	replay := func(version int, cand modelsvc.Predictor) {
		roll.SetCandidate(modelsvc.Deployment{Version: version, Model: cand})
		for _, s := range samples {
			roll.Observe(s.X, s.Y)
		}
	}
	replay(1, scorer)
	promoted := roll.Current().Version
	replay(2, constScorer(1e6))
	promotions, rejections, _ := roll.Stats()

	// Race the promoted scorer against LRU on the same trace.
	hf, err := storage.CreateHeapFile(filepath.Join(dir, "trace.heap"), 1)
	if err != nil {
		return nil, err
	}
	defer hf.Close()
	for p := 0; p < npages; p++ {
		if _, err := hf.AllocPage(); err != nil {
			return nil, err
		}
	}
	scorers := []modelsvc.Predictor{
		nil,  // the pool's default: LRU
		roll, // the rollout itself is the learned slot
	}
	var hit, hotHit [2]float64
	replayIdentical, replayEvictions := true, 0
	for i, sc := range scorers {
		var logs [2][]storage.PageKey
		for rep := range logs {
			pool := storage.NewPool(storage.PoolOptions{Capacity: evictFrames, Scorer: sc, RecordEvictions: true})
			if hit[i], hotHit[i], err = driveTrace(pool, hf, trace, hotN); err != nil {
				return nil, err
			}
			logs[rep] = pool.EvictionLog()
		}
		replayEvictions = len(logs[0])
		replayIdentical = replayIdentical && replayEvictions > 0 && slices.Equal(logs[0], logs[1])
	}
	r.rowf("%-24s %-11s %s", "eviction policy", "hit rate", "hot-set hit rate")
	r.rowf("%-24s %-11.3f %.3f", "LRU", hit[0], hotHit[0])
	r.rowf("%-24s %-11.3f %.3f", "learned (gated, v1)", hit[1], hotHit[1])
	r.rowf("gate: %d promotion(s) over %d trace samples (trained MLP vs Recency incumbent), %d rejection(s) (constant scorer), serving v%d",
		promotions, len(samples), rejections, roll.Current().Version)
	r.rowf("replay: %d evictions, logs bit-identical under both policies %v", replayEvictions, replayIdentical)

	r.Holds = scanOK && promotions >= 1 && promoted == 1 && rejections >= 1 && roll.Current().Version == 1 &&
		hit[1] > hit[0] && replayIdentical
	r.Metrics["lru_hit_rate"] = hit[0]
	r.Metrics["learned_hit_rate"] = hit[1]
	r.Metrics["hot_hit_rate_learned"] = hotHit[1]
	return r, nil
}
