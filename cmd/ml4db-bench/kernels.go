package main

// The kernels suite times the cache-blocked parallel math kernels against
// their serial counterparts. Two families are measured:
//
//   - mlmath.MatMul on square matrices, serial (nil pool) vs a
//     GOMAXPROCS-sized pool;
//   - end-to-end nn.MLP training on a synthetic regression set, serial vs
//     data-parallel mini-batches.
//
// Every parallel run is also checked for the repository's determinism
// contract: MatMul must be bit-identical to the serial kernel for every
// worker count, and parallel training must be bit-identical across repeated
// runs with the same seed and worker count. A violation fails the benchmark
// rather than just noting it, because a fast-but-irreproducible kernel is
// useless here. Speedups on a single-CPU machine will hover around 1x (the
// pool degenerates to near-serial execution plus channel overhead); the
// envelope's gomaxprocs and numcpu record the machine so readers can judge
// the numbers. See docs/PERFORMANCE.md for how to interpret the output.

import (
	"fmt"
	"math"

	"ml4db/internal/mlmath"
	"ml4db/internal/nn"
)

type kernelResult struct {
	Name         string  `json:"name"`
	SerialSec    float64 `json:"serial_sec"`
	ParallelSec  float64 `json:"parallel_sec"`
	Speedup      float64 `json:"speedup"`
	Workers      int     `json:"workers"`
	BitIdentical bool    `json:"bit_identical"`
	// Identity names the determinism property verified for this row:
	// "serial" = parallel output equals the serial output bit for bit,
	// "rerun" = repeated runs with the same seed and worker count agree.
	Identity string `json:"identity"`
}

type kernelReport struct {
	MatMulBlock int            `json:"matmul_block"`
	Results     []kernelResult `json:"results"`
}

func fillMat(m *mlmath.Mat, rng *mlmath.RNG) {
	for i := range m.Data {
		m.Data[i] = rng.Float64()*2 - 1
	}
}

func matsEqualBits(a, b *mlmath.Mat) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

func benchMatMul(seed uint64, size, workers int, quick bool) kernelResult {
	rng := mlmath.NewRNG(seed)
	a := mlmath.NewMat(size, size)
	b := mlmath.NewMat(size, size)
	fillMat(a, rng)
	fillMat(b, rng)

	serialOut := mlmath.MatMul(a, b, nil)
	serial := bestOf(quick, func() { mlmath.MatMul(a, b, nil) })

	pool := mlmath.NewPool(workers)
	defer pool.Close()
	identical := matsEqualBits(serialOut, mlmath.MatMul(a, b, pool))
	// Sweep a few other worker counts: identity must hold for all of them,
	// not just the benchmarked one.
	for _, w := range []int{2, 3, 5} {
		p := mlmath.NewPool(w)
		identical = identical && matsEqualBits(serialOut, mlmath.MatMul(a, b, p))
		p.Close()
	}
	parallel := bestOf(quick, func() { mlmath.MatMul(a, b, pool) })

	return kernelResult{
		Name:         fmt.Sprintf("matmul_%dx%d", size, size),
		SerialSec:    serial,
		ParallelSec:  parallel,
		Speedup:      serial / parallel,
		Workers:      workers,
		BitIdentical: identical,
		Identity:     "serial",
	}
}

// mlpDataset builds a synthetic nonlinear regression problem.
func mlpDataset(seed uint64, n, dim int) (xs, ys [][]float64) {
	rng := mlmath.NewRNG(seed)
	xs = make([][]float64, n)
	ys = make([][]float64, n)
	for i := range xs {
		x := make([]float64, dim)
		t := 0.0
		for j := range x {
			x[j] = rng.Float64()*2 - 1
			t += math.Sin(float64(j+1) * x[j])
		}
		xs[i] = x
		ys[i] = []float64{t / float64(dim)}
	}
	return xs, ys
}

func trainMLP(seed uint64, xs, ys [][]float64, epochs int, pool *mlmath.Pool) *nn.MLP {
	rng := mlmath.NewRNG(seed)
	m := nn.NewMLP([]int{len(xs[0]), 64, 64, 1}, nn.LeakyReLU{}, nn.Identity{}, rng)
	m.Fit(xs, ys, nn.FitOptions{
		Epochs:    epochs,
		BatchSize: 64,
		Optimizer: nn.NewAdam(1e-3),
		RNG:       mlmath.NewRNG(seed + 1),
		Pool:      pool,
	})
	return m
}

func mlpParamsEqualBits(a, b *nn.MLP) bool {
	ap, bp := a.Params(), b.Params()
	for i := range ap {
		for j := range ap[i].Val {
			if math.Float64bits(ap[i].Val[j]) != math.Float64bits(bp[i].Val[j]) {
				return false
			}
		}
	}
	return true
}

func benchMLPTrain(seed uint64, n, epochs, workers int, quick bool) kernelResult {
	xs, ys := mlpDataset(seed, n, 32)

	serial := bestOf(quick, func() { trainMLP(seed, xs, ys, epochs, nil) })

	pool := mlmath.NewPool(workers)
	defer pool.Close()
	// Rerun identity: the same seed and worker count must rebuild the exact
	// same model. (Cross-worker-count identity is deliberately not promised
	// for training — gradient reduction order depends on the shard count.)
	m1 := trainMLP(seed, xs, ys, epochs, pool)
	m2 := trainMLP(seed, xs, ys, epochs, pool)
	identical := mlpParamsEqualBits(m1, m2)
	parallel := bestOf(quick, func() { trainMLP(seed, xs, ys, epochs, pool) })

	return kernelResult{
		Name:         fmt.Sprintf("mlp_train_n%d_e%d", n, epochs),
		SerialSec:    serial,
		ParallelSec:  parallel,
		Speedup:      serial / parallel,
		Workers:      workers,
		BitIdentical: identical,
		Identity:     "rerun",
	}
}

func kernelSuite(seed uint64, quick bool, _ string) (any, error) {
	workers := gomaxprocs()
	sizes := []int{128, 256, 512}
	trainN, epochs := 2000, 3
	if quick {
		sizes = []int{128, 256}
		trainN, epochs = 400, 1
	}

	rep := kernelReport{MatMulBlock: mlmath.MatMulBlock}
	for _, size := range sizes {
		rep.Results = append(rep.Results, benchMatMul(seed, size, workers, quick))
	}
	rep.Results = append(rep.Results, benchMLPTrain(seed, trainN, epochs, workers, quick))

	for _, r := range rep.Results {
		fmt.Printf("%-24s serial %8.4fs  parallel %8.4fs  speedup %.2fx  %s-identical %v\n",
			r.Name, r.SerialSec, r.ParallelSec, r.Speedup, r.Identity, r.BitIdentical)
		if !r.BitIdentical {
			return nil, fmt.Errorf("kernel %s violated its determinism contract (%s identity)", r.Name, r.Identity)
		}
	}
	return rep, nil
}
