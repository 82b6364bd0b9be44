package main

// The serve suite exercises the internal/modelsvc model lifecycle subsystem
// end to end.
//
//   - registry: publish + load round-trip latency for a versioned checkpoint,
//     with the restored model verified bit-identical to the published one;
//   - serving: batched inference through the Server (queue coalescing over a
//     worker pool) vs a serial per-request loop, with the bit-identity
//     contract checked for several worker counts;
//   - rollout: the canary gate driven under a ManualClock — a better
//     candidate must be promoted and a worse one rejected (the benchmark
//     fails otherwise), and the shadow-mode Observe overhead is measured
//     against stable-mode Observe;
//   - admission control: a bounded queue under overload must reject the
//     excess deterministically.
//
// The subsystem's obs instruments are written to serve_metrics.jsonl and
// validated (cmd/ml4db-tracecheck revalidates them in CI).

import (
	"fmt"
	"math"
	"time"

	"ml4db/internal/mlmath"
	"ml4db/internal/modelsvc"
	"ml4db/internal/nn"
	"ml4db/internal/obs"
)

// predictorFunc lets a plain function serve as a deployment model or an
// eviction scorer.
type predictorFunc func(x []float64) float64

func (f predictorFunc) Predict(x []float64) float64 { return f(x) }

type serveReport struct {
	Requests int `json:"requests"`
	MaxBatch int `json:"max_batch"`
	Workers  int `json:"workers"`

	SerialSec    float64 `json:"serial_sec"`
	BatchedSec   float64 `json:"batched_sec"`
	Speedup      float64 `json:"speedup"`
	BitIdentical bool    `json:"bit_identical"`

	RegistryPublishSec float64 `json:"registry_publish_sec"`
	RegistryLoadSec    float64 `json:"registry_load_sec"`

	StableObserveSec    float64 `json:"stable_observe_sec"`
	ShadowObserveSec    float64 `json:"shadow_observe_sec"`
	ShadowOverheadRatio float64 `json:"shadow_overhead_ratio"`

	Promotions       int  `json:"promotions"`
	Rejections       int  `json:"rejections"`
	GateBlockedWorse bool `json:"gate_blocked_worse"`

	QueueRejected int64 `json:"queue_rejected"`
}

// serveModel builds the benchmark MLP (random init — inference cost does not
// depend on training) and a deterministic request stream.
func serveModel(seed uint64, dim int, n int) (*nn.MLP, [][]float64) {
	rng := mlmath.NewRNG(seed)
	net := nn.NewMLP([]int{dim, 64, 64, 1}, nn.LeakyReLU{}, nn.Identity{}, rng)
	xs := make([][]float64, n)
	for i := range xs {
		x := make([]float64, dim)
		for j := range x {
			x[j] = rng.Float64()*2 - 1
		}
		xs[i] = x
	}
	return net, xs
}

func serveSuite(seed uint64, quick bool, dir string) (any, error) {
	workers := gomaxprocs()
	requests, dim, maxBatch := 20000, 16, 64
	if quick {
		requests = 2000
	}
	net, xs := serveModel(seed, dim, requests)
	model := predictorFunc(func(x []float64) float64 { return net.Forward(x)[0] })
	reg := obs.NewRegistry()
	rep := serveReport{Requests: requests, MaxBatch: maxBatch, Workers: workers}

	// Registry round trip.
	regDir, cleanup, err := scratchDir()
	if err != nil {
		return nil, err
	}
	defer cleanup()
	modelReg, err := modelsvc.OpenRegistry(regDir)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	man, err := modelsvc.PublishModule(modelReg, "bench-mlp", net, map[string]string{"trigger": "bench"})
	if err != nil {
		return nil, err
	}
	rep.RegistryPublishSec = time.Since(start).Seconds()
	restored := nn.NewMLP([]int{dim, 64, 64, 1}, nn.LeakyReLU{}, nn.Identity{}, mlmath.NewRNG(seed+1))
	start = time.Now()
	if _, err := modelsvc.LoadModule(modelReg, "bench-mlp", man.Version, restored); err != nil {
		return nil, err
	}
	rep.RegistryLoadSec = time.Since(start).Seconds()
	if a, b := net.Forward(xs[0])[0], restored.Forward(xs[0])[0]; math.Float64bits(a) != math.Float64bits(b) {
		return nil, fmt.Errorf("registry round trip is not bit-identical: %v vs %v", a, b)
	}

	// Serial baseline.
	want := make([]float64, len(xs))
	rep.SerialSec = bestOf(quick, func() {
		for i, x := range xs {
			want[i] = model.Predict(x)
		}
	})

	// Batched serving through the queue, plus the bit-identity sweep.
	runBatched := func(w int) ([]float64, error) {
		pool := mlmath.NewPool(w)
		defer pool.Close()
		srv := modelsvc.NewServer(modelsvc.Single{Deployment: modelsvc.Deployment{Version: man.Version, Model: model}},
			modelsvc.ServerOptions{MaxQueue: len(xs), MaxBatch: maxBatch, Pool: pool, Metrics: reg})
		tickets := make([]*modelsvc.Ticket, len(xs))
		for i, x := range xs {
			t, err := srv.Submit(x)
			if err != nil {
				return nil, err
			}
			tickets[i] = t
		}
		srv.Flush()
		out := make([]float64, len(xs))
		for i, t := range tickets {
			out[i], _ = t.Wait()
		}
		return out, nil
	}
	rep.BitIdentical = true
	for _, w := range []int{1, 2, 3, workers} {
		out, err := runBatched(w)
		if err != nil {
			return nil, err
		}
		for i := range out {
			if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
				rep.BitIdentical = false
			}
		}
	}
	if !rep.BitIdentical {
		return nil, fmt.Errorf("batched serving is not bit-identical to the serial loop")
	}
	rep.BatchedSec = bestOf(quick, func() { _, _ = runBatched(workers) })
	rep.Speedup = rep.SerialSec / rep.BatchedSec

	// Canary gate under a ManualClock: a worse candidate must be blocked, a
	// better one promoted. truth = model prediction + tiny offset makes the
	// incumbent near-perfect; candidates are biased copies.
	clock := &mlmath.ManualClock{T: time.Unix(1700000000, 0)}
	window := 64
	if quick {
		window = 16
	}
	rollout := modelsvc.NewRollout(modelsvc.Deployment{Version: man.Version, Model: model},
		modelsvc.RolloutOptions{Window: window, Clock: clock, Metrics: reg,
			ErrFn: func(pred, truth float64) float64 { return math.Abs(pred - truth) }})
	truth := func(x []float64) float64 { return model.Predict(x) + 0.25 }
	// Stable-mode Observe cost.
	rep.StableObserveSec = bestOf(quick, func() {
		for _, x := range xs[:window] {
			rollout.Observe(x, truth(x))
		}
	})
	// Worse candidate: twice the incumbent's distance from truth. Shadowing
	// runs exactly one window, so it is timed once, not through bestOf.
	rollout.SetCandidate(modelsvc.Deployment{Version: man.Version + 1,
		Model: predictorFunc(func(x []float64) float64 { return model.Predict(x) - 0.5 })})
	start = time.Now()
	for _, x := range xs[:window] {
		rollout.Observe(x, truth(x))
	}
	rep.ShadowObserveSec = time.Since(start).Seconds()
	if rep.StableObserveSec > 0 {
		rep.ShadowOverheadRatio = rep.ShadowObserveSec / rep.StableObserveSec
	}
	promotions, rejections, _ := rollout.Stats()
	rep.GateBlockedWorse = promotions == 0 && rejections == 1 && rollout.Current().Version == man.Version
	if !rep.GateBlockedWorse {
		return nil, fmt.Errorf("canary gate failed to block a worse candidate (promotions=%d rejections=%d)", promotions, rejections)
	}
	// Better candidate: exact truth function.
	rollout.SetCandidate(modelsvc.Deployment{Version: man.Version + 2, Model: predictorFunc(truth)})
	for _, x := range xs[:window] {
		rollout.Observe(x, truth(x))
	}
	promotions, rejections, _ = rollout.Stats()
	if promotions != 1 || rollout.Current().Version != man.Version+2 {
		return nil, fmt.Errorf("canary gate failed to promote a better candidate (promotions=%d)", promotions)
	}
	rep.Promotions, rep.Rejections = promotions, rejections

	// Admission control under overload.
	small := modelsvc.NewServer(modelsvc.Single{Deployment: modelsvc.Deployment{Version: 1, Model: model}},
		modelsvc.ServerOptions{MaxQueue: 8, MaxBatch: maxBatch, Metrics: reg})
	for _, x := range xs[:64] {
		if _, err := small.Submit(x); err != nil {
			rep.QueueRejected++
		}
	}
	small.Flush()
	if rep.QueueRejected != 64-8 {
		return nil, fmt.Errorf("admission control rejected %d of 64 requests, want %d", rep.QueueRejected, 64-8)
	}

	fmt.Printf("%-24s serial %8.4fs  batched %8.4fs  speedup %.2fx  bit-identical %v\n",
		fmt.Sprintf("serve_n%d_b%d", requests, maxBatch), rep.SerialSec, rep.BatchedSec, rep.Speedup, rep.BitIdentical)
	fmt.Printf("%-24s publish %8.5fs  load %8.5fs\n", "registry_roundtrip", rep.RegistryPublishSec, rep.RegistryLoadSec)
	fmt.Printf("%-24s stable %8.5fs  shadow %8.5fs  ratio %.2fx\n", "rollout_observe",
		rep.StableObserveSec, rep.ShadowObserveSec, rep.ShadowOverheadRatio)
	fmt.Printf("%-24s promotions %d  rejections %d  worse-blocked %v  queue-rejected %d\n",
		"canary_gate", rep.Promotions, rep.Rejections, rep.GateBlockedWorse, rep.QueueRejected)

	return rep, writeJSONL(dir, "serve_metrics.jsonl", reg.WriteJSONL, obs.ValidateMetricsJSONL)
}
