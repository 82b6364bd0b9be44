package nn

import (
	"math"

	"ml4db/internal/mlmath"
)

// Dense is a fully connected layer y = act(W·x + b).
type Dense struct {
	In, Out int
	W       *Param // Out×In, row-major
	B       *Param // Out
	Act     Activation
}

// NewDense constructs a dense layer with Xavier/Glorot-uniform initialization.
func NewDense(in, out int, act Activation, rng *mlmath.RNG) *Dense {
	d := &Dense{In: in, Out: out, W: NewParam(in * out), B: NewParam(out), Act: act}
	scale := math.Sqrt(6.0 / float64(in+out))
	d.W.InitUniform(rng, scale)
	return d
}

// Params implements Module.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// denseCache holds per-sample forward state needed for the backward pass.
type denseCache struct {
	x   []float64 // input
	pre []float64 // W·x + b
	out []float64 // act(pre)
}

// forward computes the layer output and returns the cache for backward.
func (d *Dense) forward(x []float64) *denseCache {
	c := &denseCache{x: x, pre: make([]float64, d.Out), out: make([]float64, d.Out)}
	d.apply(c.out, c.pre, x)
	return c
}

// apply writes act(W·x + b) into out and, when pre is non-nil, W·x + b into
// pre. It is the layer's one copy of its arithmetic, so inference and the
// training pass compute the same floats, bit for bit.
func (d *Dense) apply(out, pre, x []float64) {
	if len(x) != d.In {
		//ml4db:allow nakedpanic "caller bug: input width fixed by layer construction"
		panic("nn: Dense forward input size mismatch")
	}
	for o := range out[:d.Out] {
		v := mlmath.Dot(d.W.Val[o*d.In:(o+1)*d.In], x) + d.B.Val[o]
		if pre != nil {
			pre[o] = v
		}
		out[o] = d.Act.Apply(v)
	}
}

// backward accumulates parameter gradients from dOut (gradient of the loss
// with respect to this layer's output) and returns the gradient with respect
// to the layer input.
func (d *Dense) backward(c *denseCache, dOut []float64) []float64 {
	if len(dOut) != d.Out {
		//ml4db:allow nakedpanic "caller bug: gradient width fixed by layer construction"
		panic("nn: Dense backward grad size mismatch")
	}
	dIn := make([]float64, d.In)
	for o := 0; o < d.Out; o++ {
		g := dOut[o] * d.Act.Deriv(c.pre[o], c.out[o])
		if g == 0 {
			continue
		}
		d.B.Grad[o] += g
		wRow := d.W.Val[o*d.In : (o+1)*d.In]
		gRow := d.W.Grad[o*d.In : (o+1)*d.In]
		for i := 0; i < d.In; i++ {
			gRow[i] += g * c.x[i]
			dIn[i] += g * wRow[i]
		}
	}
	return dIn
}

// Forward computes the layer output into out (at least Out long) without
// retaining backward state, and returns out[:Out].
func (d *Dense) Forward(out, x []float64) []float64 {
	d.apply(out, nil, x)
	return out[:d.Out]
}
