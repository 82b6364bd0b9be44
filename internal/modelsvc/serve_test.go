package modelsvc

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"ml4db/internal/mlmath"
	"ml4db/internal/obs"
)

// sinPredictor is a deterministic nonlinear model: enough float work that a
// reassociated or double-served request would show up bit-for-bit.
type sinPredictor struct{ scale float64 }

func (p sinPredictor) Predict(x []float64) float64 {
	s := 0.0
	for i, v := range x {
		s += math.Sin(v*p.scale + float64(i))
	}
	return s / (1 + math.Abs(s))
}

func serveInputs(seed uint64, n, dim int) [][]float64 {
	rng := mlmath.NewRNG(seed)
	xs := make([][]float64, n)
	for i := range xs {
		x := make([]float64, dim)
		for j := range x {
			x[j] = rng.Float64()*4 - 2
		}
		xs[i] = x
	}
	return xs
}

// TestBatchedBitIdenticalToSerial is the serving contract of the issue:
// batched inference through the server, for every worker count, is
// bit-identical to a serial per-request loop over the same predictor.
func TestBatchedBitIdenticalToSerial(t *testing.T) {
	model := sinPredictor{scale: 1.7}
	xs := serveInputs(21, 403, 6)
	want := make([]float64, len(xs))
	for i, x := range xs {
		want[i] = model.Predict(x)
	}
	for workers := 1; workers <= 8; workers++ {
		pool := mlmath.NewPool(workers)
		srv := NewServer(Single{Deployment{Version: 1, Model: model}},
			ServerOptions{MaxQueue: len(xs), MaxBatch: 37, Pool: pool})
		tickets := make([]*Ticket, len(xs))
		for i, x := range xs {
			tk, err := srv.Submit(x)
			if err != nil {
				t.Fatal(err)
			}
			tickets[i] = tk
		}
		if served := srv.Flush(); served != len(xs) {
			t.Fatalf("workers=%d: Flush served %d, want %d", workers, served, len(xs))
		}
		for i, tk := range tickets {
			got, version := tk.Wait()
			if math.Float64bits(got) != math.Float64bits(want[i]) {
				t.Fatalf("workers=%d: request %d batched %v != serial %v", workers, i, got, want[i])
			}
			if version != 1 {
				t.Fatalf("workers=%d: request %d served by version %d", workers, i, version)
			}
		}
		pool.Close()
	}
}

func TestServerBackpressure(t *testing.T) {
	reg := obs.NewRegistry()
	srv := NewServer(Single{Deployment{Version: 1, Model: sinPredictor{scale: 1}}},
		ServerOptions{MaxQueue: 3, MaxBatch: 2, Metrics: reg})
	for i := 0; i < 3; i++ {
		if _, err := srv.Submit([]float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.Submit([]float64{9}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if got := reg.Counter("modelsvc.serve.rejected").Value(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
	if srv.QueueDepth() != 3 {
		t.Fatalf("queue depth = %d, want 3", srv.QueueDepth())
	}
	// Draining frees capacity again.
	if served := srv.Flush(); served != 3 {
		t.Fatalf("Flush served %d, want 3", served)
	}
	if _, err := srv.Submit([]float64{10}); err != nil {
		t.Fatalf("Submit after drain failed: %v", err)
	}
	// MaxBatch=2 split 3 requests into batches of 2 and 1.
	if got := reg.Counter("modelsvc.serve.batches").Value(); got != 2 {
		t.Fatalf("batches counter = %d, want 2", got)
	}
	if got := reg.Histogram("modelsvc.serve.batch_size", nil).Count(); got != 2 {
		t.Fatalf("batch_size samples = %d, want 2", got)
	}
}

func TestServerPredictConvenience(t *testing.T) {
	model := sinPredictor{scale: 0.9}
	srv := NewServer(Single{Deployment{Version: 7, Model: model}}, ServerOptions{})
	x := []float64{0.25, -1.5}
	got, version, err := srv.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	if want := model.Predict(x); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Predict = %v, want %v", got, want)
	}
	if version != 7 {
		t.Fatalf("version = %d, want 7", version)
	}
	if srv.QueueDepth() != 0 {
		t.Fatal("Predict left the queue non-empty")
	}
}

func TestServerFlushSubmissionOrder(t *testing.T) {
	// Requests are served in submission order, batch by batch; metrics see
	// every request exactly once.
	reg := obs.NewRegistry()
	model := sinPredictor{scale: 2.3}
	srv := NewServer(Single{Deployment{Version: 1, Model: model}},
		ServerOptions{MaxBatch: 4, Metrics: reg})
	xs := serveInputs(5, 10, 3)
	var tickets []*Ticket
	for _, x := range xs {
		tk, err := srv.Submit(x)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	srv.Flush()
	for i, tk := range tickets {
		got, _ := tk.Wait()
		if want := model.Predict(xs[i]); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("request %d got %v, want %v", i, got, want)
		}
	}
	if got := reg.Counter("modelsvc.serve.served").Value(); got != int64(len(xs)) {
		t.Fatalf("served counter = %d, want %d", got, len(xs))
	}
	if got := reg.Counter("modelsvc.serve.submitted").Value(); got != int64(len(xs)) {
		t.Fatalf("submitted counter = %d, want %d", got, len(xs))
	}
}

// TestMetricsJSONLValidates fills one registry from a Server (accepted,
// rejected and flushed requests) and a Rollout (a promotion, a rejection and
// a demotion), and requires its JSONL export to pass the metrics schema with
// one line for each of the 18 modelsvc instruments.
func TestMetricsJSONLValidates(t *testing.T) {
	reg := obs.NewRegistry()
	srv := NewServer(Single{Deployment{Version: 1, Model: sinPredictor{scale: 1}}},
		ServerOptions{MaxQueue: 4, MaxBatch: 3, Metrics: reg})
	for _, x := range serveInputs(8, 6, 2) {
		if _, err := srv.Submit(x); err != nil && !errors.Is(err, ErrQueueFull) {
			t.Fatal(err)
		}
	}
	srv.Flush()

	r, _ := manualRollout(1, 4, reg)
	r.SetCandidate(Deployment{Version: 2, Model: biasPredictor{factor: 1.1}})
	if out := driveWindow(r, 4); out != OutcomePromoted {
		t.Fatalf("better candidate: outcome %v, want promotion", out)
	}
	r.SetCandidate(Deployment{Version: 3, Model: biasPredictor{factor: 5}})
	if out := driveWindow(r, 4); out != OutcomeRejected {
		t.Fatalf("worse candidate: outcome %v, want rejection", out)
	}
	if !r.Demote() {
		t.Fatal("Demote found nothing to restore")
	}

	var buf bytes.Buffer
	if err := reg.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := obs.ValidateMetricsJSONL(&buf)
	if err != nil {
		t.Fatalf("metrics JSONL fails its schema: %v", err)
	}
	if n != 18 {
		t.Errorf("validated %d metric lines, want one per modelsvc instrument (18)", n)
	}
}
