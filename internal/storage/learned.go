package storage

import (
	"fmt"
	"math"

	"ml4db/internal/mlmath"
	"ml4db/internal/modelsvc"
	"ml4db/internal/nn"
)

// FeatureDim is the width of the eviction feature vector.
const FeatureDim = 3

// fillFeatures encodes one page's access history at decision time into x
// (FeatureDim long): log1p of (ticks since last access, lifetime access
// count, last inter-access gap). The same encoding feeds training and
// serving, so a scorer's inputs replay bit-identically.
func fillFeatures(x []float64, recency, count, gap uint64) []float64 {
	x[0] = math.Log1p(float64(recency))
	x[1] = math.Log1p(float64(count))
	x[2] = math.Log1p(float64(gap))
	return x
}

// Recency is the LRU-equivalent heuristic scorer: the predicted forward
// reuse distance is exactly the time since last access, so evicting the
// maximum prediction evicts the least recently used page. It is the scorer
// rollout's incumbent and demotion fallback — a learned scorer can never
// do worse than LRU for longer than one canary window.
type Recency struct{}

// Predict implements modelsvc.Predictor.
func (Recency) Predict(x []float64) float64 { return x[0] }

// NewScorerRollout returns the canary rollout eviction scorers deploy
// through: Recency serves as version 0 and is also the fallback Demote
// restores, so a candidate serves evictions only after beating the
// LRU-equivalent baseline over window shadow observations. The rollout is
// itself a modelsvc.Predictor — set it as PoolOptions.Scorer and promotions
// reach the pool atomically. Predictions are log1p reuse distances (often
// < 1), where QError's clamp-at-1 would flatten every comparison; absolute
// error keeps the gate discriminating.
func NewScorerRollout(window int) *modelsvc.Rollout {
	return modelsvc.NewRollout(modelsvc.Deployment{Version: 0, Model: Recency{}}, modelsvc.RolloutOptions{
		Window:   window,
		ErrFn:    func(pred, truth float64) float64 { return math.Abs(pred - truth) },
		Fallback: Recency{},
	})
}

// history is one page's accesses while resident, in pool ticks: what a
// frame keeps for its scorer and TraceSamples keeps per page of a trace.
type history struct {
	last  uint64 // tick of the most recent access
	prev  uint64 // tick of the access before that (0 if none)
	count uint64 // accesses while resident
}

// access records one access at tick.
func (h *history) access(tick uint64) {
	h.prev, h.last = h.last, tick
	h.count++
}

// features encodes the history as of tick into x.
func (h *history) features(x []float64, tick uint64) []float64 {
	gap := uint64(0)
	if h.prev > 0 {
		gap = h.last - h.prev
	}
	return fillFeatures(x, tick-h.last, h.count, gap)
}

// Sample is one supervised eviction-training example: the page's feature
// vector at an access, labeled with log1p of the actual forward reuse
// distance (capped at the horizon).
type Sample struct {
	X []float64
	Y float64
}

// TraceSamples replays an access trace and emits one Sample per access
// whose page has prior history, labeling it with the distance to the
// page's next access (capped at horizon; horizon <= 0 means the trace
// length). This is the training set for a learned eviction scorer and the
// replay window a scorer rollout shadows candidates over.
func TraceSamples(trace []PageKey, horizon int) []Sample {
	if horizon <= 0 {
		horizon = len(trace)
	}
	// next[i] is the distance from access i to the next access of the same
	// page, capped at horizon.
	next := make([]uint64, len(trace))
	lastSeen := make(map[PageKey]int, 64)
	for i := len(trace) - 1; i >= 0; i-- {
		if j, ok := lastSeen[trace[i]]; ok && j-i <= horizon {
			next[i] = uint64(j - i)
		} else {
			next[i] = uint64(horizon)
		}
		lastSeen[trace[i]] = i
	}
	st := make(map[PageKey]history, 64)
	var out []Sample
	for i, key := range trace {
		tick := uint64(i + 1)
		s, seen := st[key]
		if seen {
			out = append(out, Sample{X: s.features(make([]float64, FeatureDim), tick), Y: math.Log1p(float64(next[i]))})
		}
		s.access(tick)
		st[key] = s
	}
	return out
}

// MLPScorer is a trained eviction scorer: an MLP regressing log1p forward
// reuse distance from the fillFeatures encoding. It implements
// modelsvc.Predictor for serving through a scorer rollout and nn.Module, so
// modelsvc.PublishModule and LoadModule version and checksum a candidate
// like any other model.
type MLPScorer struct {
	M *nn.MLP
}

// Predict implements modelsvc.Predictor.
func (s *MLPScorer) Predict(x []float64) float64 { return s.M.Predict1(x) }

// Params implements nn.Module.
func (s *MLPScorer) Params() []*nn.Param { return s.M.Params() }

// NewMLPScorer returns an untrained scorer with the standard architecture
// (FeatureDim → 16 → 1), initialized from seed.
func NewMLPScorer(seed uint64) *MLPScorer {
	rng := mlmath.NewRNG(seed)
	return &MLPScorer{M: nn.NewMLP([]int{FeatureDim, 16, 1}, nn.LeakyReLU{}, nn.Identity{}, rng)}
}

// TrainScorer fits an MLPScorer on the samples. Same samples + same seed →
// bit-identical model (the nn.Fit contract); pool may be nil for strictly
// serial training.
func TrainScorer(samples []Sample, seed uint64, epochs int, pool *mlmath.Pool) (*MLPScorer, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("storage: no training samples")
	}
	if epochs < 1 {
		epochs = 30
	}
	xs := make([][]float64, len(samples))
	ys := make([][]float64, len(samples))
	for i, s := range samples {
		xs[i] = s.X
		ys[i] = []float64{s.Y}
	}
	sc := NewMLPScorer(seed)
	sc.M.Fit(xs, ys, nn.FitOptions{
		Epochs:    epochs,
		BatchSize: 32,
		Optimizer: nn.NewAdam(0.005),
		RNG:       mlmath.NewRNG(seed + 1),
		Pool:      pool,
	})
	return sc, nil
}
