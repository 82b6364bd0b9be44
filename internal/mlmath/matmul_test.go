package mlmath

import (
	"math"
	"runtime"
	"strconv"
	"testing"
)

func randomMat(rng *RNG, rows, cols int) *Mat {
	m := NewMat(rows, cols)
	for i := range m.Data {
		// Mix magnitudes and signs so accumulation-order differences would
		// actually show up as bit differences.
		m.Data[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(5))-2)
	}
	return m
}

// naiveMatMul is the textbook triple loop: the reference the kernels must
// match in ascending-k accumulation order.
func naiveMatMul(a, b *Mat) *Mat {
	out := NewMat(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func matsBitIdentical(a, b *Mat) bool {
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

// TestMatMulBitIdenticalAcrossWorkers is the central determinism property:
// the parallel blocked kernel must produce bit-identical output to the
// serial kernel for every worker count from 1 to 8, on shapes that exercise
// partial tiles and rows that do not divide evenly among workers.
func TestMatMulBitIdenticalAcrossWorkers(t *testing.T) {
	rng := NewRNG(7)
	shapes := [][3]int{
		{1, 1, 1}, {3, 5, 2}, {17, 13, 29}, {64, 64, 64},
		{65, 64, 63}, {100, 1, 100}, {1, 128, 1}, {130, 70, 90},
	}
	for _, sh := range shapes {
		a := randomMat(rng, sh[0], sh[1])
		b := randomMat(rng, sh[1], sh[2])
		serial := MatMul(a, b, nil)
		for workers := 1; workers <= 8; workers++ {
			p := NewPool(workers)
			got := MatMul(a, b, p)
			p.Close()
			if !matsBitIdentical(serial, got) {
				t.Fatalf("%dx%dx%d: parallel MatMul with %d workers differs from serial", sh[0], sh[1], sh[2], workers)
			}
		}
	}
}

// TestMatMulMatchesNaive checks numerical agreement (and, because the
// blocked kernel preserves ascending-k accumulation, bit agreement) with
// the textbook triple loop.
func TestMatMulMatchesNaive(t *testing.T) {
	rng := NewRNG(3)
	for _, sh := range [][3]int{{4, 6, 5}, {31, 33, 7}, {70, 65, 66}} {
		a := randomMat(rng, sh[0], sh[1])
		b := randomMat(rng, sh[1], sh[2])
		if !matsBitIdentical(naiveMatMul(a, b), MatMul(a, b, nil)) {
			t.Fatalf("%v: blocked kernel differs from naive triple loop", sh)
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	a, b := NewMat(2, 3), NewMat(4, 2)
	for name, fn := range map[string]func(){
		"MatMul": func() { MatMul(a, b, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on shape mismatch", name)
				}
			}()
			fn()
		}()
	}
}

func TestMulDelegatesToBlockedKernel(t *testing.T) {
	rng := NewRNG(9)
	a := randomMat(rng, 40, 30)
	b := randomMat(rng, 30, 20)
	if !matsBitIdentical(a.Mul(b), MatMul(a, b, nil)) {
		t.Fatal("Mat.Mul differs from MatMul(a, b, nil)")
	}
}

// BenchmarkMatMul multiplies two square matrices on a pool sized by
// GOMAXPROCS, so `-cpu 1,2,4` is the worker sweep (Shared() is sized once per
// process and cannot follow -cpu).
func BenchmarkMatMul(b *testing.B) {
	pool := NewPool(runtime.GOMAXPROCS(0))
	defer pool.Close()
	for _, size := range []int{128, 512} {
		b.Run(strconv.Itoa(size), func(b *testing.B) {
			rng := NewRNG(1)
			x := randomMat(rng, size, size)
			y := randomMat(rng, size, size)
			b.SetBytes(int64(size) * int64(size) * int64(size) * 16) // 2 flops·8B proxy
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMul(x, y, pool)
			}
		})
	}
}
