package nn

import (
	"math"
	"testing"

	"ml4db/internal/mlmath"
)

// gradCheck compares the analytic gradient of sum(root) with respect to each
// parameter against central finite differences of rebuild().
func gradCheck(t *testing.T, name string, params []*Param, rebuild func() float64, analytic func() map[*Param][]float64) {
	t.Helper()
	grads := analytic()
	const eps = 1e-6
	for pi, p := range params {
		ag := grads[p]
		for i := range p.Val {
			orig := p.Val[i]
			p.Val[i] = orig + eps
			lp := rebuild()
			p.Val[i] = orig - eps
			lm := rebuild()
			p.Val[i] = orig
			numeric := (lp - lm) / (2 * eps)
			if math.Abs(numeric-ag[i]) > 1e-4*math.Max(1, math.Abs(numeric)) {
				t.Errorf("%s: param %d[%d]: analytic %v vs numeric %v", name, pi, i, ag[i], numeric)
			}
		}
	}
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

func ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

func snapshotGrads(params []*Param) map[*Param][]float64 {
	out := make(map[*Param][]float64, len(params))
	for _, p := range params {
		out[p] = mlmath.Clone(p.Grad)
		p.ZeroGrad()
	}
	return out
}

func TestAutodiffAffineChain(t *testing.T) {
	rng := mlmath.NewRNG(1)
	w1, b1 := NewParam(6*3), NewParam(6)
	w2, b2 := NewParam(2*6), NewParam(2)
	w1.InitUniform(rng, 0.5)
	b1.InitUniform(rng, 0.5)
	w2.InitUniform(rng, 0.5)
	b2.InitUniform(rng, 0.5)
	x := []float64{0.3, -0.2, 0.9}
	params := []*Param{w1, b1, w2, b2}

	run := func() (*Graph, *VNode) {
		g := NewGraph()
		h := g.TanhV(g.Affine(w1, b1, 6, 3, g.Input(x)))
		out := g.Affine(w2, b2, 2, 6, h)
		return g, out
	}
	rebuild := func() float64 {
		_, out := run()
		return sum(out.Val)
	}
	analytic := func() map[*Param][]float64 {
		g, out := run()
		g.Backward(out, ones(2))
		return snapshotGrads(params)
	}
	gradCheck(t, "affine-chain", params, rebuild, analytic)
}

func TestAutodiffGates(t *testing.T) {
	rng := mlmath.NewRNG(2)
	w := NewParam(4 * 4)
	w.InitUniform(rng, 0.5)
	x := []float64{0.5, -0.5, 0.2, 0.8}
	y := []float64{-0.1, 0.7, 0.3, -0.9}
	params := []*Param{w}
	run := func() (*Graph, *VNode) {
		g := NewGraph()
		a := g.SigmoidV(g.Affine(w, nil, 4, 4, g.Input(x)))
		b := g.Input(y)
		gated := g.Mul(a, b)
		return g, g.Add(gated, a)
	}
	rebuild := func() float64 { _, o := run(); return sum(o.Val) }
	analytic := func() map[*Param][]float64 {
		g, o := run()
		g.Backward(o, ones(4))
		return snapshotGrads(params)
	}
	gradCheck(t, "gates", params, rebuild, analytic)
}

func TestAutodiffReLUMaxPool(t *testing.T) {
	rng := mlmath.NewRNG(3)
	w := NewParam(3 * 6)
	w.InitUniform(rng, 0.7)
	x12 := []float64{0.4, -0.6, 0.1, -0.3, 0.9, 0.5}
	x21 := []float64{-0.3, 0.9, 0.5, 0.4, -0.6, 0.1}
	params := []*Param{w}
	run := func() (*Graph, *VNode) {
		g := NewGraph()
		h1 := g.ReLUV(g.Affine(w, nil, 3, 6, g.Input(x12)))
		h2 := g.ReLUV(g.Affine(w, nil, 3, 6, g.Input(x21)))
		return g, g.MaxPool(h1, h2)
	}
	rebuild := func() float64 { _, o := run(); return sum(o.Val) }
	analytic := func() map[*Param][]float64 {
		g, o := run()
		g.Backward(o, ones(3))
		return snapshotGrads(params)
	}
	gradCheck(t, "relu-maxpool", params, rebuild, analytic)
}

func TestAutodiffMeanPool(t *testing.T) {
	g := NewGraph()
	a := g.Input([]float64{2, 4})
	b := g.Input([]float64{6, 8})
	m := g.MeanPool(a, b)
	if m.Val[0] != 4 || m.Val[1] != 6 {
		t.Fatalf("MeanPool = %v", m.Val)
	}
	g.Backward(m, []float64{1, 1})
	if a.Grad[0] != 0.5 || b.Grad[1] != 0.5 {
		t.Errorf("MeanPool grads: a=%v b=%v", a.Grad, b.Grad)
	}
}

func TestAutodiffAttention(t *testing.T) {
	rng := mlmath.NewRNG(4)
	wq := NewParam(3 * 3)
	wk := NewParam(3 * 3)
	wv := NewParam(3 * 3)
	for _, p := range []*Param{wq, wk, wv} {
		p.InitUniform(rng, 0.6)
	}
	feats := [][]float64{{0.2, -0.5, 0.7}, {0.9, 0.1, -0.3}, {-0.6, 0.4, 0.5}}
	bias := [][]float64{{0, -0.5, -1}, {-0.5, 0, -0.5}, {-1, -0.5, 0}}
	params := []*Param{wq, wk, wv}
	run := func() (*Graph, *VNode) {
		g := NewGraph()
		var qs, ks, vs []*VNode
		for _, f := range feats {
			in := g.Input(f)
			qs = append(qs, g.Affine(wq, nil, 3, 3, in))
			ks = append(ks, g.Affine(wk, nil, 3, 3, in))
			vs = append(vs, g.Affine(wv, nil, 3, 3, in))
		}
		outs := g.Attention(qs, ks, vs, bias)
		return g, g.MeanPool(outs...)
	}
	rebuild := func() float64 { _, o := run(); return sum(o.Val) }
	analytic := func() map[*Param][]float64 {
		g, o := run()
		g.Backward(o, ones(3))
		return snapshotGrads(params)
	}
	gradCheck(t, "attention", params, rebuild, analytic)
}

func TestAttentionRowsSumToOneImplicitly(t *testing.T) {
	// With identical values the attention output must equal that value
	// regardless of scores (weights sum to 1).
	g := NewGraph()
	v := []float64{3, -2}
	var qs, ks, vs []*VNode
	for i := 0; i < 4; i++ {
		qs = append(qs, g.Input([]float64{float64(i), 1}))
		ks = append(ks, g.Input([]float64{1, float64(i)}))
		vs = append(vs, g.Input(v))
	}
	outs := g.Attention(qs, ks, vs, nil)
	for _, o := range outs {
		if math.Abs(o.Val[0]-3) > 1e-9 || math.Abs(o.Val[1]+2) > 1e-9 {
			t.Errorf("attention output %v, want [3 -2]", o.Val)
		}
	}
}

func TestGraphBackwardAccumulatesOnSharedInput(t *testing.T) {
	g := NewGraph()
	x := g.Input([]float64{2})
	y := g.Add(x, x) // y = 2x → dy/dx = 2
	g.Backward(y, []float64{1})
	if x.Grad[0] != 2 {
		t.Errorf("shared-input grad = %v, want 2", x.Grad[0])
	}
}
