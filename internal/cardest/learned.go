package cardest

import (
	"fmt"
	"math"

	"ml4db/internal/mlmath"
	"ml4db/internal/nn"
	"ml4db/internal/obs"
	"ml4db/internal/sqlkit/expr"
)

// MLPEstimator is a query-driven learned cardinality estimator: an MLP over
// normalized predicate-range features trained on (query, true selectivity)
// pairs in logit space. It captures cross-column correlation — the failure
// mode of the histogram baseline — but requires training data and degrades
// under drift (E14).
type MLPEstimator struct {
	F   *Featurizer
	Net *nn.MLP
	// TrainSeconds records the last training duration (the model-efficiency
	// metric of E13).
	TrainSeconds float64
	// Clock supplies the timing reads behind TrainSeconds. Leave nil for the
	// system clock; inject a *mlmath.ManualClock to make retraining decisions
	// reproducible under a fixed seed.
	Clock mlmath.Clock
	// Pool, when non-nil, parallelizes mini-batch training (deterministic
	// per worker count) and batched estimation (bit-identical for any worker
	// count). Nil keeps both strictly serial, so experiment results stay
	// identical across machines by default.
	Pool *mlmath.Pool
	// Metrics, when non-nil, receives the cardest.mlp.epoch_loss histogram
	// and cardest.mlp.train_seconds gauge.
	Metrics *obs.Registry
	rng     *mlmath.RNG
}

// NewMLPEstimator builds an untrained estimator with the given hidden sizes.
func NewMLPEstimator(f *Featurizer, hidden []int, rng *mlmath.RNG) *MLPEstimator {
	sizes := append([]int{f.Dim()}, hidden...)
	sizes = append(sizes, 1)
	return &MLPEstimator{F: f, Net: nn.NewMLP(sizes, nn.LeakyReLU{}, nn.Identity{}, rng), rng: rng}
}

// Clone returns an estimator with the same architecture and copied
// parameters, sharing the featurizer and runtime knobs (clock, pool,
// metrics) but no mutable parameter state with the receiver — training the
// clone never disturbs the original, which is what lets drift adaptation
// fit candidates off to the side while the incumbent keeps serving. A nil
// rng shares the receiver's RNG stream (deterministic as long as only one
// of the two trains at a time).
func (m *MLPEstimator) Clone(rng *mlmath.RNG) *MLPEstimator {
	if rng == nil {
		rng = m.rng
	}
	hidden := make([]int, 0, len(m.Net.Layers)-1)
	for _, l := range m.Net.Layers[:len(m.Net.Layers)-1] {
		hidden = append(hidden, l.Out)
	}
	c := NewMLPEstimator(m.F, hidden, rng)
	dst, src := c.Net.Params(), m.Net.Params()
	for i, p := range src {
		copy(dst[i].Val, p.Val)
	}
	c.Clock, c.Pool, c.Metrics = m.Clock, m.Pool, m.Metrics
	return c
}

// Train fits the network on labeled queries.
func (m *MLPEstimator) Train(queries [][]expr.Pred, fractions []float64, epochs int) {
	xs := make([][]float64, len(queries))
	ys := make([][]float64, len(queries))
	for i, q := range queries {
		xs[i] = m.F.Features(q)
		ys[i] = []float64{logitSel(fractions[i])}
	}
	clock := mlmath.ClockOrSystem(m.Clock)
	start := clock.Now()
	m.Net.Fit(xs, ys, nn.FitOptions{
		Epochs: epochs, BatchSize: 32,
		Optimizer: nn.NewAdam(3e-3), RNG: m.rng,
		Pool:    m.Pool,
		Metrics: m.Metrics, MetricName: "cardest.mlp",
	})
	m.TrainSeconds = clock.Now().Sub(start).Seconds()
	if m.Metrics != nil {
		m.Metrics.Gauge("cardest.mlp.train_seconds").Set(m.TrainSeconds)
		m.Metrics.Counter("cardest.mlp.trainings").Inc()
	}
}

// EstimateFractionBatch estimates many predicate sets at once, splitting the
// batch across the estimator's Pool. Inference is read-only, so the result
// matches the serial per-query loop bit for bit under any worker count.
func (m *MLPEstimator) EstimateFractionBatch(queries [][]expr.Pred) []float64 {
	out := make([]float64, len(queries))
	m.Pool.ParallelFor(len(queries), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = m.EstimateFraction(queries[i])
		}
	})
	return out
}

// Name implements Estimator.
func (m *MLPEstimator) Name() string { return "mlp" }

// SizeBytes implements Estimator.
func (m *MLPEstimator) SizeBytes() int { return nn.ParamCount(m.Net) * 8 }

// EstimateFraction implements Estimator. It allocates one buffer, holding
// the features and every layer's output.
func (m *MLPEstimator) EstimateFraction(preds []expr.Pred) float64 {
	dim := m.F.Dim()
	buf := make([]float64, dim+m.Net.BufferLen())
	return invLogit(m.Net.ForwardInto(buf[dim:], m.F.encode(buf[:dim], preds))[0])
}

// NNGP is a lightweight Bayesian estimator after Zhao et al.: Gaussian
// process regression with the arc-cosine kernel of an infinite-width
// one-hidden-layer ReLU network (the NNGP kernel). Training is one Cholesky
// solve — seconds, not epochs — and the posterior variance is available for
// free, which the paper highlights for practical deployment.
type NNGP struct {
	F *Featurizer
	// Noise is the observation noise σ² added to the kernel diagonal.
	Noise float64

	xs    [][]float64
	alpha []float64
	// TrainSeconds records the kernel-solve time.
	TrainSeconds float64
	// Clock supplies the timing reads behind TrainSeconds; nil means the
	// system clock.
	Clock mlmath.Clock
	chol  *mlmath.Mat
}

// NewNNGP builds an untrained estimator.
func NewNNGP(f *Featurizer, noise float64) *NNGP {
	if noise <= 0 {
		noise = 1e-2
	}
	return &NNGP{F: f, Noise: noise}
}

// arccosKernel is the degree-1 arc-cosine (NNGP/ReLU) kernel.
func arccosKernel(a, b []float64) float64 {
	// Augment with a bias dimension so the kernel is non-degenerate at the
	// origin.
	dot := mlmath.Dot(a, b) + 1
	na := mlmath.Norm2(a)
	nb := mlmath.Norm2(b)
	na = math.Sqrt(na*na + 1)
	nb = math.Sqrt(nb*nb + 1)
	cos := mlmath.Clamp(dot/(na*nb), -1, 1)
	theta := math.Acos(cos)
	return na * nb * (math.Sin(theta) + (math.Pi-theta)*cos) / math.Pi
}

// Train solves (K + σ²I)·α = y over the labeled queries.
func (g *NNGP) Train(queries [][]expr.Pred, fractions []float64) error {
	n := len(queries)
	if n == 0 {
		return fmt.Errorf("cardest: NNGP needs training data")
	}
	g.xs = make([][]float64, n)
	y := make([]float64, n)
	for i, q := range queries {
		g.xs[i] = g.F.Features(q)
		y[i] = logitSel(fractions[i])
	}
	clock := mlmath.ClockOrSystem(g.Clock)
	start := clock.Now()
	k := mlmath.NewMat(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := arccosKernel(g.xs[i], g.xs[j])
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
		k.Set(i, i, k.At(i, i)+g.Noise)
	}
	l, err := mlmath.Cholesky(k)
	if err != nil {
		return fmt.Errorf("cardest: NNGP kernel: %w", err)
	}
	g.chol = l
	g.alpha = mlmath.SolveUpperT(l, mlmath.SolveLower(l, y))
	g.TrainSeconds = clock.Now().Sub(start).Seconds()
	return nil
}

// Name implements Estimator.
func (g *NNGP) Name() string { return "nngp" }

// SizeBytes implements Estimator: the stored training inputs plus α.
func (g *NNGP) SizeBytes() int {
	if len(g.xs) == 0 {
		return 0
	}
	return len(g.xs)*len(g.xs[0])*8 + len(g.alpha)*8
}

// EstimateFraction implements Estimator.
func (g *NNGP) EstimateFraction(preds []expr.Pred) float64 {
	x := g.F.Features(preds)
	s := 0.0
	for i, xi := range g.xs {
		s += g.alpha[i] * arccosKernel(x, xi)
	}
	return invLogit(s)
}

// Variance returns the posterior predictive variance at the query — the
// uncertainty signal a deployment can gate on.
func (g *NNGP) Variance(preds []expr.Pred) float64 {
	x := g.F.Features(preds)
	kx := make([]float64, len(g.xs))
	for i, xi := range g.xs {
		kx[i] = arccosKernel(x, xi)
	}
	v := mlmath.SolveLower(g.chol, kx)
	return arccosKernel(x, x) - mlmath.Dot(v, v)
}
