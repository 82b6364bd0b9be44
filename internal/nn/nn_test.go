package nn

import (
	"math"
	"testing"
	"testing/quick"

	"ml4db/internal/mlmath"
)

func TestDenseForwardShape(t *testing.T) {
	rng := mlmath.NewRNG(1)
	d := NewDense(3, 5, ReLU{}, rng)
	out := d.Forward(make([]float64, d.Out), []float64{1, 2, 3})
	if len(out) != 5 {
		t.Fatalf("output size = %d, want 5", len(out))
	}
	for _, v := range out {
		if v < 0 {
			t.Errorf("ReLU output negative: %v", v)
		}
	}
}

// TestDenseGradientCheck verifies analytic gradients against central finite
// differences for all parameters and the input.
func TestDenseGradientCheck(t *testing.T) {
	rng := mlmath.NewRNG(2)
	d := NewDense(4, 3, Tanh{}, rng)
	x := []float64{0.5, -0.3, 0.8, -0.1}
	target := []float64{0.2, -0.4, 0.6}

	loss := func() float64 {
		out := d.Forward(make([]float64, d.Out), x)
		l := 0.0
		for i := range out {
			diff := out[i] - target[i]
			l += diff * diff
		}
		return l / float64(len(out))
	}

	// Analytic gradients.
	c := d.forward(x)
	grad := make([]float64, 3)
	MSELoss(c.out, target, grad)
	dIn := d.backward(c, grad)

	const eps = 1e-6
	for pi, p := range d.Params() {
		for i := range p.Val {
			orig := p.Val[i]
			p.Val[i] = orig + eps
			lp := loss()
			p.Val[i] = orig - eps
			lm := loss()
			p.Val[i] = orig
			numeric := (lp - lm) / (2 * eps)
			if math.Abs(numeric-p.Grad[i]) > 1e-5 {
				t.Errorf("param %d[%d]: analytic %v vs numeric %v", pi, i, p.Grad[i], numeric)
			}
		}
	}
	for i := range x {
		orig := x[i]
		x[i] = orig + eps
		lp := loss()
		x[i] = orig - eps
		lm := loss()
		x[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-dIn[i]) > 1e-5 {
			t.Errorf("input[%d]: analytic %v vs numeric %v", i, dIn[i], numeric)
		}
	}
}

// TestForwardMatchesTapeBits: inference computes the training pass's floats
// bit for bit. On random inputs, MLP.Forward and ForwardInto equal
// ForwardTape's output under math.Float64bits, for networks of LeakyReLU
// layers (the learned estimators' hidden activation) and of Identity layers
// (their output activation), one output wide and several; and ForwardInto
// over a buffer it is given allocates nothing.
func TestForwardMatchesTapeBits(t *testing.T) {
	rng := mlmath.NewRNG(17)
	for _, tc := range []struct {
		sizes  []int
		hidden Activation
	}{
		{[]int{4, 32, 16, 1}, LeakyReLU{}},
		{[]int{4, 32, 16, 1}, Identity{}},
		{[]int{6, 9, 3}, LeakyReLU{}},
		{[]int{6, 9, 3}, Identity{}},
	} {
		m := NewMLP(tc.sizes, tc.hidden, Identity{}, rng)
		buf := make([]float64, m.BufferLen())
		x := make([]float64, tc.sizes[0])
		for range 500 {
			for i := range x {
				x[i] = 4 * rng.NormFloat64()
			}
			_, want := m.ForwardTape(x)
			for name, got := range map[string][]float64{"Forward": m.Forward(x), "ForwardInto": m.ForwardInto(buf, x)} {
				if len(got) != len(want) {
					t.Fatalf("%v %s: %s gave %d outputs, want %d", tc.sizes, tc.hidden.Name(), name, len(got), len(want))
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%v %s: %s output %d = %x, ForwardTape %x", tc.sizes, tc.hidden.Name(), name, i, got[i], want[i])
					}
				}
			}
		}
		if a := testing.AllocsPerRun(100, func() { m.ForwardInto(buf, x) }); a != 0 {
			t.Errorf("%v %s: ForwardInto allocates %.0f times, want 0", tc.sizes, tc.hidden.Name(), a)
		}
	}
}

func TestMLPGradientCheck(t *testing.T) {
	rng := mlmath.NewRNG(3)
	m := NewMLP([]int{3, 6, 4, 2}, Tanh{}, Identity{}, rng)
	x := []float64{0.1, -0.7, 0.4}
	target := []float64{1.5, -0.5}

	loss := func() float64 {
		out := m.Forward(x)
		l := 0.0
		for i := range out {
			d := out[i] - target[i]
			l += d * d
		}
		return l / float64(len(out))
	}

	tape, pred := m.ForwardTape(x)
	grad := make([]float64, len(pred))
	MSELoss(pred, target, grad)
	dIn := tape.Backward(grad)

	const eps = 1e-6
	for pi, p := range m.Params() {
		for i := 0; i < len(p.Val); i += 3 { // sample every 3rd for speed
			orig := p.Val[i]
			p.Val[i] = orig + eps
			lp := loss()
			p.Val[i] = orig - eps
			lm := loss()
			p.Val[i] = orig
			numeric := (lp - lm) / (2 * eps)
			if math.Abs(numeric-p.Grad[i]) > 1e-5 {
				t.Errorf("param %d[%d]: analytic %v vs numeric %v", pi, i, p.Grad[i], numeric)
			}
		}
	}
	for i := range x {
		orig := x[i]
		x[i] = orig + eps
		lp := loss()
		x[i] = orig - eps
		lm := loss()
		x[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-dIn[i]) > 1e-5 {
			t.Errorf("input[%d]: analytic %v vs numeric %v", i, dIn[i], numeric)
		}
	}
}

func TestMLPLearnsXOR(t *testing.T) {
	rng := mlmath.NewRNG(4)
	m := NewMLP([]int{2, 8, 1}, Tanh{}, Sigmoid{}, rng)
	xs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	ys := [][]float64{{0}, {1}, {1}, {0}}
	m.Fit(xs, ys, FitOptions{Epochs: 2000, BatchSize: 4, Optimizer: NewAdam(0.05), RNG: rng})
	for i, x := range xs {
		p := m.Predict1(x)
		want := ys[i][0]
		if math.Abs(p-want) > 0.2 {
			t.Errorf("XOR(%v) = %.3f, want %.0f", x, p, want)
		}
	}
}

func TestMLPLearnsLinearFunction(t *testing.T) {
	rng := mlmath.NewRNG(5)
	m := NewMLP([]int{2, 16, 1}, ReLU{}, Identity{}, rng)
	var xs, ys [][]float64
	for i := 0; i < 400; i++ {
		a, b := rng.Float64(), rng.Float64()
		xs = append(xs, []float64{a, b})
		ys = append(ys, []float64{3*a - 2*b + 0.5})
	}
	loss := m.Fit(xs, ys, FitOptions{Epochs: 200, BatchSize: 32, Optimizer: NewAdam(0.01), RNG: rng})
	if loss > 0.01 {
		t.Errorf("final loss %v, want < 0.01", loss)
	}
}

func TestSGDStepDirection(t *testing.T) {
	p := NewParam(1)
	p.Val[0] = 1.0
	p.Grad[0] = 2.0
	mod := fakeModule{p}
	(&SGD{LR: 0.1}).Step(mod)
	if math.Abs(p.Val[0]-0.8) > 1e-12 {
		t.Errorf("SGD step: val = %v, want 0.8", p.Val[0])
	}
	if p.Grad[0] != 0 {
		t.Error("SGD did not zero gradient")
	}
}

func TestSGDClipping(t *testing.T) {
	p := NewParam(1)
	p.Grad[0] = 100
	(&SGD{LR: 1, Clip: 1}).Step(fakeModule{p})
	if math.Abs(p.Val[0]+1) > 1e-12 {
		t.Errorf("clipped SGD val = %v, want -1", p.Val[0])
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	p := NewParam(1)
	p.Val[0] = 5
	mod := fakeModule{p}
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		p.Grad[0] = 2 * p.Val[0] // d/dx x²
		opt.Step(mod)
	}
	if math.Abs(p.Val[0]) > 0.01 {
		t.Errorf("Adam did not converge: x = %v", p.Val[0])
	}
}

type fakeModule struct{ p *Param }

func (f fakeModule) Params() []*Param { return []*Param{f.p} }

func TestModuleGroup(t *testing.T) {
	rng := mlmath.NewRNG(6)
	a := NewMLP([]int{2, 3}, Tanh{}, Identity{}, rng)
	b := NewMLP([]int{3, 1}, Tanh{}, Identity{}, rng)
	g := ModuleGroup{a, b}
	if got, want := len(g.Params()), len(a.Params())+len(b.Params()); got != want {
		t.Errorf("group params = %d, want %d", got, want)
	}
	if ParamCount(g) != ParamCount(a)+ParamCount(b) {
		t.Error("ParamCount of group mismatch")
	}
}

func TestActivationDerivatives(t *testing.T) {
	acts := []Activation{ReLU{}, LeakyReLU{}, Tanh{}, Sigmoid{}, Identity{}}
	const eps = 1e-6
	for _, act := range acts {
		for _, x := range []float64{-2, -0.5, 0.3, 1.7} {
			y := act.Apply(x)
			analytic := act.Deriv(x, y)
			numeric := (act.Apply(x+eps) - act.Apply(x-eps)) / (2 * eps)
			if math.Abs(analytic-numeric) > 1e-4 {
				t.Errorf("%s'(%v): analytic %v vs numeric %v", act.Name(), x, analytic, numeric)
			}
		}
	}
}

func TestFitDeterminism(t *testing.T) {
	build := func() float64 {
		rng := mlmath.NewRNG(77)
		m := NewMLP([]int{2, 4, 1}, Tanh{}, Identity{}, rng)
		xs := [][]float64{{0, 0}, {1, 0}, {0, 1}, {1, 1}}
		ys := [][]float64{{0}, {1}, {1}, {2}}
		return m.Fit(xs, ys, FitOptions{Epochs: 50, BatchSize: 2, Optimizer: NewAdam(0.01), RNG: mlmath.NewRNG(5)})
	}
	if build() != build() {
		t.Error("training is not deterministic under fixed seeds")
	}
}

func TestParamCountFormula(t *testing.T) {
	rng := mlmath.NewRNG(8)
	m := NewMLP([]int{10, 20, 5}, ReLU{}, Identity{}, rng)
	want := 10*20 + 20 + 20*5 + 5
	if got := ParamCount(m); got != want {
		t.Errorf("ParamCount = %d, want %d", got, want)
	}
}

func TestMLPForwardFiniteProperty(t *testing.T) {
	rng := mlmath.NewRNG(9)
	m := NewMLP([]int{3, 8, 1}, ReLU{}, Identity{}, rng)
	f := func(a, b, c float64) bool {
		clampIn := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0
			}
			return math.Mod(x, 1000)
		}
		out := m.Forward([]float64{clampIn(a), clampIn(b), clampIn(c)})
		return !math.IsNaN(out[0]) && !math.IsInf(out[0], 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
