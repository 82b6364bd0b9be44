package modelsvc

import (
	"math"
	"testing"
	"time"

	"ml4db/internal/mlmath"
	"ml4db/internal/nn"
	"ml4db/internal/obs"
)

// randInputs returns n random inputs of width dim in [-2, 2).
func randInputs(seed uint64, n, dim int) [][]float64 {
	rng := mlmath.NewRNG(seed)
	xs := make([][]float64, n)
	for i := range xs {
		x := make([]float64, dim)
		for j := range x {
			x[j] = rng.Float64()*4 - 2
		}
		xs[i] = x
	}
	return xs
}

// mlpPredictor serves an nn.MLP.
type mlpPredictor struct{ *nn.MLP }

func (m mlpPredictor) Predict(x []float64) float64 { return m.Predict1(x) }

// benchMLP is a randomly initialised 16-64-64-1 MLP: inference cost does not
// depend on training.
func benchMLP(seed uint64) mlpPredictor {
	return mlpPredictor{nn.NewMLP([]int{16, 64, 64, 1}, nn.LeakyReLU{}, nn.Identity{}, mlmath.NewRNG(seed))}
}

// BenchmarkRolloutObserve is one Observe of the 16-64-64-1 MLP with metrics
// on under a ManualClock: stable (incumbent only) and shadow (a candidate
// predicts alongside, and a new candidate replaces each decided one). shadow
// ns/op over stable ns/op is the shadow-mode overhead ratio.
func BenchmarkRolloutObserve(b *testing.B) {
	const window = 64
	incumbent := benchMLP(1)
	xs := randInputs(2, window, 16)
	truth := make([]float64, len(xs))
	for i, x := range xs {
		truth[i] = incumbent.Predict(x) + 0.25
	}
	for _, shadow := range []bool{false, true} {
		name := "stable"
		if shadow {
			name = "shadow"
		}
		b.Run(name, func(b *testing.B) {
			absErr := func(pred, truth float64) float64 { return math.Abs(pred - truth) }
			r := NewRollout(Deployment{Version: 1, Model: incumbent}, RolloutOptions{Window: window,
				Clock: &mlmath.ManualClock{T: time.Unix(1700000000, 0)}, Metrics: obs.NewRegistry(), ErrFn: absErr})
			candidate := Deployment{Version: 2, Model: benchMLP(2)}
			if shadow {
				r.SetCandidate(candidate)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if out, _ := r.Observe(xs[i%window], truth[i%window]); out != OutcomeNone {
					r.SetCandidate(candidate)
				}
			}
		})
	}
}
