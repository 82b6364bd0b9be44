package experiments

import (
	"bytes"
	"testing"
	"time"

	"ml4db/internal/cardest"
	"ml4db/internal/learnedindex"
	"ml4db/internal/mlmath"
	"ml4db/internal/obs"
	"ml4db/internal/qo/bao"
	"ml4db/internal/sqlkit/exec"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/optimizer"
)

// traceWorkload runs a small end-to-end workload with full observability
// attached: each of five queries gets a root "query" span with optimizer.plan
// and exec.execute children (the latter with one span per operator), and the
// learned components — BAO, the MLP cardinality estimator with its drift
// adapter, and an RMI learned index — emit their counters and histograms
// into reg. Under a ManualClock the trace is bit-reproducible.
func traceWorkload(seed uint64, tr *obs.Tracer, reg *obs.Registry, clock mlmath.Clock) error {
	env, gen, err := qoTestbed(seed, 2000)
	if err != nil {
		return err
	}
	env.Instrument(tr, reg, clock)

	// Query lifecycle: optimize → execute with per-operator EXPLAIN stats.
	for i := 0; i < 5; i++ {
		q := gen.QueryWithDims(2)
		qsp := tr.StartSpan("query", nil)
		p, err := env.Opt.PlanTraced(q, optimizer.NoHint(), tr, qsp)
		if err != nil {
			qsp.End()
			return err
		}
		res, err := env.Exec.Execute(p, exec.Options{Analyze: true, Span: qsp})
		if err != nil {
			qsp.End()
			return err
		}
		qsp.SetInt("work", res.Work).SetInt("rows", int64(len(res.Rows))).End()
	}

	// BAO: per-query arm choice, reward, and win/regression counters.
	b := bao.New(env, optimizer.StandardHintSets(), mlmath.NewRNG(seed+1))
	for i := 0; i < 6; i++ {
		if _, _, _, err := b.RunQueryCompared(gen.QueryWithDims(2)); err != nil {
			return err
		}
	}

	// Learned cardinality estimation: epoch-loss histogram from training,
	// q-error histogram from drift monitoring.
	fact := env.Cat.Table(gen.Schema.FactID)
	f, err := cardest.NewFeaturizer(fact, gen.Schema.AttrCols)
	if err != nil {
		return err
	}
	rng := mlmath.NewRNG(seed + 2)
	var preds [][]expr.Pred
	var fracs []float64
	for i := 0; i < 80; i++ {
		ps := gen.SelectionQuery(2, i%2 == 0).Filters[0]
		preds = append(preds, ps)
		fracs = append(fracs, cardest.TrueFraction(fact, ps))
	}
	mlp := cardest.NewMLPEstimator(f, []int{16}, rng)
	mlp.Metrics = reg
	mlp.Clock = clock
	mlp.Train(preds[:60], fracs[:60], 15)
	drift := cardest.NewDriftAdapter(mlp)
	drift.Metrics = reg
	for i := 60; i < 80; i++ {
		drift.Observe(preds[i], fracs[i])
	}

	// Learned index: model-hit vs window-search vs miss probe counters.
	kvs := make([]learnedindex.KV, 512)
	for i := range kvs {
		kvs[i] = learnedindex.KV{Key: int64(i * 7), Value: int64(i)}
	}
	rmi := learnedindex.BuildRMI(kvs, 16)
	rmi.Instrument(reg)
	for i := 0; i < 1024; i++ {
		rmi.Get(int64(i * 3)) // every third probe hits a stored key
	}
	return nil
}

// TestTraceWorkloadReplaysByteIdentical runs traceWorkload twice under a
// fresh ManualClock: each run's span and metric JSONL must pass its schema
// validator, and the two runs must export the same bytes.
func TestTraceWorkloadReplaysByteIdentical(t *testing.T) {
	run := func() (spans, metrics []byte) {
		clock := &mlmath.ManualClock{T: time.Unix(0, 0)}
		tr := obs.NewTracer(clock)
		reg := obs.NewRegistry()
		if err := traceWorkload(42, tr, reg, clock); err != nil {
			t.Fatal(err)
		}
		var s, m bytes.Buffer
		if err := tr.WriteJSONL(&s); err != nil {
			t.Fatal(err)
		}
		if err := reg.WriteJSONL(&m); err != nil {
			t.Fatal(err)
		}
		if _, err := obs.ValidateTraceJSONL(bytes.NewReader(s.Bytes())); err != nil {
			t.Fatalf("spans: %v", err)
		}
		if _, err := obs.ValidateMetricsJSONL(bytes.NewReader(m.Bytes())); err != nil {
			t.Fatalf("metrics: %v", err)
		}
		return s.Bytes(), m.Bytes()
	}
	spansA, metricsA := run()
	spansB, metricsB := run()
	if !bytes.Equal(spansA, spansB) {
		t.Errorf("span JSONL differs between runs (%d vs %d bytes)", len(spansA), len(spansB))
	}
	if !bytes.Equal(metricsA, metricsB) {
		t.Errorf("metric JSONL differs between runs (%d vs %d bytes)", len(metricsA), len(metricsB))
	}
}
