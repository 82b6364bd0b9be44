package nn

import (
	"math"
	"runtime"
	"testing"

	"ml4db/internal/mlmath"
)

// makeDataset builds a deterministic synthetic regression problem.
func makeDataset(rng *mlmath.RNG, n, dim int) (xs, ys [][]float64) {
	xs = make([][]float64, n)
	ys = make([][]float64, n)
	for i := 0; i < n; i++ {
		x := make([]float64, dim)
		s := 0.0
		for j := range x {
			x[j] = rng.Float64()*2 - 1
			s += x[j] * float64(j%3)
		}
		xs[i] = x
		ys[i] = []float64{math.Tanh(s)}
	}
	return xs, ys
}

func fitOnce(seed uint64, pool *mlmath.Pool) *MLP {
	rng := mlmath.NewRNG(seed)
	m := NewMLP([]int{8, 16, 1}, LeakyReLU{}, Identity{}, rng)
	xs, ys := makeDataset(mlmath.NewRNG(seed+1), 96, 8)
	m.Fit(xs, ys, FitOptions{
		Epochs: 3, BatchSize: 16,
		Optimizer: NewAdam(3e-3), RNG: mlmath.NewRNG(seed + 2),
		Pool: pool,
	})
	return m
}

func paramsBitIdentical(a, b *MLP) bool {
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		for j := range pa[i].Val {
			if math.Float64bits(pa[i].Val[j]) != math.Float64bits(pb[i].Val[j]) {
				return false
			}
		}
	}
	return true
}

// TestFitDeterministicPerWorkerCount: for every worker count, training twice
// from the same seed must yield bit-identical models — the determinism
// contract of the fixed-order shard reduction.
func TestFitDeterministicPerWorkerCount(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 8} {
		p1 := mlmath.NewPool(workers)
		p2 := mlmath.NewPool(workers)
		a := fitOnce(42, p1)
		b := fitOnce(42, p2)
		p1.Close()
		p2.Close()
		if !paramsBitIdentical(a, b) {
			t.Fatalf("workers=%d: two runs from the same seed differ", workers)
		}
	}
}

// TestFitSingleWorkerPoolMatchesSerial: a one-worker pool must take the
// strictly serial path and match Pool == nil bit for bit.
func TestFitSingleWorkerPoolMatchesSerial(t *testing.T) {
	p := mlmath.NewPool(1)
	defer p.Close()
	if !paramsBitIdentical(fitOnce(7, nil), fitOnce(7, p)) {
		t.Fatal("one-worker pool differs from serial training")
	}
}

// TestFitParallelLearns: parallel training must actually converge, and the
// parallel model must generalize comparably to the serial one (the gradient
// sums are reassociated, not changed).
func TestFitParallelLearns(t *testing.T) {
	p := mlmath.NewPool(4)
	defer p.Close()
	xs, ys := makeDataset(mlmath.NewRNG(2), 256, 8)
	// Fit returns the last epoch's mean loss, and a fixed seed and worker
	// count replay a run exactly, so a one-epoch fit reports the first
	// epoch of the twenty-epoch one.
	fit := func(epochs int) float64 {
		m := NewMLP([]int{8, 16, 1}, LeakyReLU{}, Identity{}, mlmath.NewRNG(1))
		return m.Fit(xs, ys, FitOptions{
			Epochs: epochs, BatchSize: 32,
			Optimizer: NewAdam(3e-3), RNG: mlmath.NewRNG(3),
			Pool: p,
		})
	}
	first, final := fit(1), fit(20)
	if math.IsNaN(final) || math.IsInf(final, 0) {
		t.Fatalf("parallel training lost numerical stability: %v", final)
	}
	if final >= first {
		t.Fatalf("parallel training did not reduce loss: first %.4f, last %.4f", first, final)
	}
}

// TestFitParallelGradientsCloseToSerial: one optimizer step on the same
// batch must produce near-identical parameters regardless of worker count
// (only float reassociation may differ).
func TestFitParallelGradientsCloseToSerial(t *testing.T) {
	build := func() *MLP {
		return NewMLP([]int{4, 8, 1}, Tanh{}, Identity{}, mlmath.NewRNG(5))
	}
	xs, ys := makeDataset(mlmath.NewRNG(6), 32, 4)
	opts := func(p *mlmath.Pool) FitOptions {
		return FitOptions{Epochs: 1, BatchSize: 32, Optimizer: &SGD{LR: 0.1}, RNG: mlmath.NewRNG(7), Pool: p}
	}
	serial := build()
	serial.Fit(xs, ys, opts(nil))
	p := mlmath.NewPool(4)
	defer p.Close()
	parallel := build()
	parallel.Fit(xs, ys, opts(p))
	ps, pp := serial.Params(), parallel.Params()
	for i := range ps {
		for j := range ps[i].Val {
			if d := math.Abs(ps[i].Val[j] - pp[i].Val[j]); d > 1e-9 {
				t.Fatalf("param %d[%d] diverged by %g between serial and 4-worker training", i, j, d)
			}
		}
	}
}

// BenchmarkMLPFit trains a 32-64-64-1 MLP for two epochs on a pool sized by
// GOMAXPROCS, so `-cpu 1,2,4` is the worker sweep.
func BenchmarkMLPFit(b *testing.B) {
	pool := mlmath.NewPool(runtime.GOMAXPROCS(0))
	defer pool.Close()
	xs, ys := makeDataset(mlmath.NewRNG(1), 512, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewMLP([]int{32, 64, 64, 1}, LeakyReLU{}, Identity{}, mlmath.NewRNG(2))
		m.Fit(xs, ys, FitOptions{
			Epochs: 2, BatchSize: 64,
			Optimizer: NewAdam(1e-3), RNG: mlmath.NewRNG(3),
			Pool: pool,
		})
	}
}
