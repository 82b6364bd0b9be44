package modelsvc

import (
	"math"
	"runtime"
	"testing"
	"time"

	"ml4db/internal/mlmath"
	"ml4db/internal/nn"
	"ml4db/internal/obs"
)

// flushRequests is how many requests one BenchmarkServerFlush iteration
// queues before its single Flush.
const flushRequests = 1024

// flushCycle submits every input to srv, flushes once, and waits on every
// ticket: one iteration of BenchmarkServerFlush.
func flushCycle(tb testing.TB, srv *Server, xs [][]float64, tickets []*Ticket) {
	for i, x := range xs {
		tk, err := srv.Submit(x)
		if err != nil {
			tb.Fatal(err)
		}
		tickets[i] = tk
	}
	if served := srv.Flush(); served != len(xs) {
		tb.Fatalf("Flush served %d, want %d", served, len(xs))
	}
	for _, tk := range tickets {
		tk.Wait()
	}
}

func flushServer(model Predictor, pool *mlmath.Pool) *Server {
	return NewServer(Single{Deployment{Version: 1, Model: model}},
		ServerOptions{MaxQueue: flushRequests, MaxBatch: 64, Pool: pool, Metrics: obs.NewRegistry()})
}

// mlpPredictor serves an nn.MLP.
type mlpPredictor struct{ *nn.MLP }

func (m mlpPredictor) Predict(x []float64) float64 { return m.Predict1(x) }

// benchMLP is a randomly initialised 16-64-64-1 MLP: inference cost does not
// depend on training.
func benchMLP(seed uint64) mlpPredictor {
	return mlpPredictor{nn.NewMLP([]int{16, 64, 64, 1}, nn.LeakyReLU{}, nn.Identity{}, mlmath.NewRNG(seed))}
}

// BenchmarkServerFlush queues flushRequests predictions of a 16-64-64-1 MLP
// and serves them with one Flush, on a pool sized by GOMAXPROCS, so
// `-cpu 1,2,4` is the worker sweep of batched serving. Metrics are on.
func BenchmarkServerFlush(b *testing.B) {
	pool := mlmath.NewPool(runtime.GOMAXPROCS(0))
	defer pool.Close()
	srv := flushServer(benchMLP(1), pool)
	xs := serveInputs(1, flushRequests, 16)
	tickets := make([]*Ticket, len(xs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flushCycle(b, srv, xs, tickets)
	}
}

// TestServerFlushAllocContract pins the Server's own allocations in one
// BenchmarkServerFlush cycle on a 2-worker pool — with sinPredictor, which
// allocates nothing, in place of the MLP: 2 179 in a plain build and under
// -race alike. 2 048 are a ticket and its channel per request; the rest are
// the queue's growth and, per batch, the input and output slices plus the
// pool's shard closures.
func TestServerFlushAllocContract(t *testing.T) {
	const ceiling = 2179
	pool := mlmath.NewPool(2)
	defer pool.Close()
	srv := flushServer(sinPredictor{scale: 1.7}, pool)
	xs := serveInputs(1, flushRequests, 16)
	tickets := make([]*Ticket, len(xs))
	got := testing.AllocsPerRun(20, func() { flushCycle(t, srv, xs, tickets) })
	if got > ceiling {
		t.Errorf("%.0f allocs per %d-request flush cycle, ceiling %d", got, flushRequests, ceiling)
	}
}

// BenchmarkRolloutObserve is one Observe of the 16-64-64-1 MLP with metrics
// on under a ManualClock: stable (incumbent only) and shadow (a candidate
// predicts alongside, and a new candidate replaces each decided one). shadow
// ns/op over stable ns/op is the shadow-mode overhead ratio.
func BenchmarkRolloutObserve(b *testing.B) {
	const window = 64
	incumbent := benchMLP(1)
	xs := serveInputs(2, window, 16)
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
				if r.Observe(xs[i%window], truth[i%window]) != OutcomeNone {
					r.SetCandidate(candidate)
				}
			}
		})
	}
}
