package nn

import (
	"ml4db/internal/mlmath"
	"ml4db/internal/obs"
)

// MLP is a multi-layer perceptron: a stack of Dense layers. It is the "task
// model" of §3.1 — the head that maps a plan representation vector (or raw
// features) to a cost, cardinality, or value estimate.
type MLP struct {
	Layers []*Dense
}

// NewMLP builds an MLP with the given layer sizes. sizes[0] is the input
// width and sizes[len-1] the output width. Hidden layers use hidden as the
// activation; the output layer uses out.
func NewMLP(sizes []int, hidden, out Activation, rng *mlmath.RNG) *MLP {
	if len(sizes) < 2 {
		//ml4db:allow nakedpanic "caller bug: an MLP needs input and output sizes"
		panic("nn: NewMLP needs at least input and output sizes")
	}
	m := &MLP{}
	for i := 0; i < len(sizes)-1; i++ {
		act := hidden
		if i == len(sizes)-2 {
			act = out
		}
		m.Layers = append(m.Layers, NewDense(sizes[i], sizes[i+1], act, rng))
	}
	return m
}

// Params implements Module.
func (m *MLP) Params() []*Param {
	var out []*Param
	for _, l := range m.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// OutDim returns the output width.
func (m *MLP) OutDim() int { return m.Layers[len(m.Layers)-1].Out }

// Forward computes the network output for a single input without retaining
// backward state. It allocates one buffer, for every layer's output; see
// ForwardInto to supply it.
func (m *MLP) Forward(x []float64) []float64 {
	return m.ForwardInto(make([]float64, m.BufferLen()), x)
}

// BufferLen returns the buffer length ForwardInto needs: the sum of the
// layers' output widths.
func (m *MLP) BufferLen() int {
	n := 0
	for _, l := range m.Layers {
		n += l.Out
	}
	return n
}

// ForwardInto is Forward over a caller's buffer of at least BufferLen
// floats: each layer writes its output into the next stretch of buf, so
// inference allocates nothing. The result is the last layer's stretch.
func (m *MLP) ForwardInto(buf, x []float64) []float64 {
	for _, l := range m.Layers {
		x, buf = l.Forward(buf, x), buf[l.Out:]
	}
	return x
}

// Tape records the forward pass of one sample so gradients can flow back
// through the MLP and out to whatever produced its input.
type Tape struct {
	mlp    *MLP
	caches []*denseCache
}

// ForwardTape runs a forward pass keeping the state needed for Backward.
func (m *MLP) ForwardTape(x []float64) (*Tape, []float64) {
	t := &Tape{mlp: m, caches: make([]*denseCache, len(m.Layers))}
	for i, l := range m.Layers {
		c := l.forward(x)
		t.caches[i] = c
		x = c.out
	}
	return t, x
}

// Backward accumulates parameter gradients from dOut (∂loss/∂output) and
// returns ∂loss/∂input, allowing upstream encoders to continue backprop.
func (t *Tape) Backward(dOut []float64) []float64 {
	g := dOut
	for i := len(t.mlp.Layers) - 1; i >= 0; i-- {
		g = t.mlp.Layers[i].backward(t.caches[i], g)
	}
	return g
}

// MSELoss returns the mean squared error and writes ∂loss/∂pred into grad.
// grad must have the same length as pred.
func MSELoss(pred, target, grad []float64) float64 {
	if len(pred) == 0 {
		return 0 // empty batch: no loss, and n would mint a NaN below
	}
	loss := 0.0
	n := float64(len(pred))
	for i := range pred {
		d := pred[i] - target[i]
		loss += d * d
		grad[i] = 2 * d / n
	}
	return loss / n
}

// TrainSample performs one forward/backward pass on a single (x, y) pair
// using MSE loss and accumulates gradients (the caller invokes the optimizer
// Step). It returns the sample loss.
func (m *MLP) TrainSample(x, y []float64) float64 {
	tape, pred := m.ForwardTape(x)
	grad := make([]float64, len(pred))
	loss := MSELoss(pred, y, grad)
	tape.Backward(grad)
	return loss
}

// FitOptions configures Fit.
type FitOptions struct {
	Epochs    int
	BatchSize int
	Optimizer Optimizer
	RNG       *mlmath.RNG // for shuffling; required
	// Pool, when non-nil with more than one worker, splits each mini-batch
	// across workers with per-goroutine gradient shards reduced in fixed
	// shard order. The same seed and worker count always reproduce the same
	// model; different worker counts reassociate the gradient sums. Nil
	// keeps training strictly serial.
	Pool *mlmath.Pool
	// Metrics, if non-nil, receives the per-epoch loss as the histogram
	// "<MetricName>.epoch_loss". Nil adds no work and no allocations.
	Metrics *obs.Registry
	// MetricName prefixes the metric names; empty means "nn.fit".
	MetricName string
}

// lossBuckets spans the loss magnitudes seen across the repo's models.
var lossBuckets = obs.ExpBuckets(1e-6, 10, 12)

// Fit trains the MLP on the dataset with mini-batch gradient accumulation.
// It returns the mean loss of the final epoch.
func (m *MLP) Fit(xs, ys [][]float64, opt FitOptions) float64 {
	if len(xs) != len(ys) {
		//ml4db:allow nakedpanic "caller bug: xs and ys must be parallel slices"
		panic("nn: Fit dataset length mismatch")
	}
	if opt.BatchSize <= 0 {
		opt.BatchSize = 16
	}
	if opt.Epochs <= 0 {
		opt.Epochs = 1
	}
	if opt.Optimizer == nil {
		opt.Optimizer = NewAdam(1e-3)
	}
	if opt.RNG == nil {
		opt.RNG = mlmath.NewRNG(0)
	}
	workers := opt.Pool.Workers()
	var shards []*MLP
	var shardLoss []float64
	if workers > 1 {
		shards = make([]*MLP, workers)
		for s := range shards {
			shards[s] = m.shardView()
		}
		shardLoss = make([]float64, workers)
	}
	last := 0.0
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	for e := 0; e < opt.Epochs; e++ {
		opt.RNG.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		total := 0.0
		for start := 0; start < len(idx); start += opt.BatchSize {
			batch := idx[start:min(start+opt.BatchSize, len(idx))]
			if workers > 1 && len(batch) > 1 {
				total += m.trainBatchParallel(xs, ys, batch, shards, shardLoss, opt.Pool)
			} else {
				for _, i := range batch {
					total += m.TrainSample(xs[i], ys[i])
				}
			}
			opt.Optimizer.Step(m)
		}
		if len(xs) > 0 {
			last = total / float64(len(xs))
		}
		if opt.Metrics != nil {
			name := opt.MetricName
			if name == "" {
				name = "nn.fit"
			}
			opt.Metrics.Histogram(name+".epoch_loss", lossBuckets).Observe(last)
			opt.Metrics.Counter(name + ".epochs").Inc()
		}
	}
	return last
}

// Predict1 runs the network and returns the first output element — a
// convenience for the many single-output regression heads in this repo.
func (m *MLP) Predict1(x []float64) float64 { return m.Forward(x)[0] }
