package mlmath

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("RNG diverged at draw %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical draws out of 1000", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGFloat64Uniformity(t *testing.T) {
	r := NewRNG(7)
	const n = 100000
	var buckets [10]int
	for i := 0; i < n; i++ {
		buckets[int(r.Float64()*10)]++
	}
	for i, c := range buckets {
		frac := float64(c) / n
		if frac < 0.08 || frac > 0.12 {
			t.Errorf("bucket %d has fraction %.4f, expected ~0.10", i, frac)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean %.4f, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance %.4f, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(3)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(5)
	z := NewZipf(r, 1.2, 1000)
	counts := make([]int, 1000)
	for i := 0; i < 50000; i++ {
		counts[z.Draw()]++
	}
	if counts[0] <= counts[10] || counts[10] <= counts[100] {
		t.Errorf("zipf counts not decreasing: c0=%d c10=%d c100=%d", counts[0], counts[10], counts[100])
	}
}

func TestDotAndNorm(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if got := Dot(a, b); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if got := Norm2([]float64{3, 4}); got != 5 {
		t.Errorf("Norm2 = %v, want 5", got)
	}
}

func TestSoftmaxProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 || len(raw) > 64 {
			return true
		}
		v := make([]float64, len(raw))
		for i, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			v[i] = math.Mod(x, 50) // keep magnitudes sane
		}
		s := Softmax(v)
		sum := 0.0
		for _, p := range s {
			if p < 0 || p > 1 || math.IsNaN(p) {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSigmoidSymmetry(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		x = math.Mod(x, 100)
		s := Sigmoid(x) + Sigmoid(-x)
		return math.Abs(s-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSolveLinear(t *testing.T) {
	a := NewMat(3, 3)
	copy(a.Data, []float64{2, 1, -1, -3, -1, 2, -2, 1, 2})
	b := []float64{8, -11, -3}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-9 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := NewMat(2, 2)
	copy(a.Data, []float64{1, 2, 2, 4})
	if _, err := SolveLinear(a, []float64{1, 2}); err == nil {
		t.Error("expected error for singular system")
	}
}

func TestSolveLinearRandomRoundTrip(t *testing.T) {
	r := NewRNG(17)
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(8)
		a := NewMat(n, n)
		for i := range a.Data {
			a.Data[i] = r.NormFloat64()
		}
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)) // diagonal dominance → well-conditioned
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = r.NormFloat64()
		}
		b := a.MulVec(want)
		got, err := SolveLinear(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-6 {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestRidgeRegressionRecoversWeights(t *testing.T) {
	r := NewRNG(23)
	const n, d = 500, 4
	w := []float64{1.5, -2, 0.5, 3}
	x := NewMat(n, d)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			x.Set(i, j, r.NormFloat64())
		}
		y[i] = Dot(x.Row(i), w) + 0.01*r.NormFloat64()
	}
	got, err := RidgeRegression(x, y, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w {
		if math.Abs(got[i]-w[i]) > 0.05 {
			t.Errorf("w[%d] = %v, want %v", i, got[i], w[i])
		}
	}
}

func TestMatMulAgainstManual(t *testing.T) {
	a := NewMat(2, 3)
	copy(a.Data, []float64{1, 2, 3, 4, 5, 6})
	b := NewMat(3, 2)
	copy(b.Data, []float64{7, 8, 9, 10, 11, 12})
	c := a.Mul(b)
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Errorf("c.Data[%d] = %v, want %v", i, c.Data[i], v)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		rows, cols := 1+r.Intn(6), 1+r.Intn(6)
		m := NewMat(rows, cols)
		for i := range m.Data {
			m.Data[i] = r.Float64()
		}
		tt := m.T().T()
		if tt.Rows != m.Rows || tt.Cols != m.Cols {
			return false
		}
		for i := range m.Data {
			if tt.Data[i] != m.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMulVecTMatchesTranspose(t *testing.T) {
	r := NewRNG(31)
	m := NewMat(4, 6)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	x := make([]float64, 4)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	got := m.MulVecT(x)
	want := m.T().MulVec(x)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("MulVecT[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := Quantile(v, 0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := Quantile(v, 1); got != 10 {
		t.Errorf("q1 = %v", got)
	}
	if got := Median(v); math.Abs(got-5.5) > 1e-12 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

func TestQError(t *testing.T) {
	cases := []struct{ est, truth, want float64 }{
		{10, 10, 1},
		{100, 10, 10},
		{10, 100, 10},
		{0, 5, 5},   // est clamped to 1
		{5, 0, 5},   // truth clamped to 1
		{0.5, 0, 1}, // both clamped
	}
	for _, c := range cases {
		if got := QError(c.est, c.truth); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("QError(%v, %v) = %v, want %v", c.est, c.truth, got, c.want)
		}
	}
}

func TestQErrorSymmetricProperty(t *testing.T) {
	f := func(a, b float64) bool {
		a, b = math.Abs(math.Mod(a, 1e6))+1, math.Abs(math.Mod(b, 1e6))+1
		q := QError(a, b)
		return q >= 1 && math.Abs(q-QError(b, a)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.Median != 3 {
		t.Errorf("Summarize = %+v", s)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Errorf("empty Summarize = %+v", z)
	}
}

func TestArgMax(t *testing.T) {
	v := []float64{3, 1, 4, 1, 5, 9, 2, 9}
	if ArgMax(v) != 5 {
		t.Errorf("ArgMax = %d, want 5 (first on ties)", ArgMax(v))
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp misbehaves")
	}
}
