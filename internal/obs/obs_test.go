package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"ml4db/internal/mlmath"
)

// quantile reads h's q-quantile the way the JSONL export's p50/p90/p99 do.
func quantile(h *Histogram, q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

func TestHistogramEmpty(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("empty histogram count=%d sum=%g", h.Count(), h.Sum())
	}
	for _, q := range []float64{0, 0.5, 1} {
		if got := quantile(h, q); got != 0 {
			t.Fatalf("empty histogram Quantile(%g) = %g, want 0", q, got)
		}
	}
}

func TestHistogramSingleSample(t *testing.T) {
	h := newHistogram(ExpBuckets(1, 10, 5))
	h.Observe(37)
	for _, q := range []float64{0, 0.25, 0.5, 1} {
		if got := quantile(h, q); got != 37 {
			t.Fatalf("single-sample Quantile(%g) = %g, want 37", q, got)
		}
	}
	if h.Sum() != 37 || h.Count() != 1 {
		t.Fatalf("sum=%g count=%d", h.Sum(), h.Count())
	}
}

func TestHistogramBucketBoundaryValues(t *testing.T) {
	// Inclusive upper bounds: a sample equal to a bound lands in that
	// bucket, not the next one.
	h := newHistogram([]float64{10, 100})
	h.Observe(10)
	h.Observe(100)
	h.Observe(101)
	r := h.snapshot()
	counts := r.counts
	if len(r.bounds) != 2 || len(counts) != 3 {
		t.Fatalf("bounds=%v counts=%v", r.bounds, counts)
	}
	if counts[0] != 1 || counts[1] != 1 || counts[2] != 1 {
		t.Fatalf("boundary samples landed in wrong buckets: %v", counts)
	}
	if r.count != 3 || r.min != 10 || r.max != 101 {
		t.Fatalf("count=%d min=%g max=%g", r.count, r.min, r.max)
	}
}

// TestHistogramQuantileEdges pins the exact quantile semantics at the
// edges: empty histograms, single samples, samples landing exactly on a
// bucket bound, overflow-only data, out-of-range q, and interpolation
// within a bucket clamped to the observed [min, max].
func TestHistogramQuantileEdges(t *testing.T) {
	cases := []struct {
		name    string
		bounds  []float64
		samples []float64
		q       float64
		want    float64
	}{
		{"empty q0", []float64{1, 10}, nil, 0, 0},
		{"empty q1", []float64{1, 10}, nil, 1, 0},
		{"single below first bound", []float64{10, 100}, []float64{3}, 0.5, 3},
		{"single exactly on bound", []float64{10, 100}, []float64{10}, 0.5, 10},
		{"single in overflow", []float64{10, 100}, []float64{500}, 0.5, 500},
		{"q below zero clamps to min", []float64{10, 100}, []float64{20, 30}, -1, 20},
		{"q above one clamps to max", []float64{10, 100}, []float64{20, 30}, 2, 30},
		{"q0 is the observed min", []float64{10, 100}, []float64{20, 30, 90}, 0, 20},
		{"q1 is the observed max", []float64{10, 100}, []float64{20, 30, 90}, 1, 90},
		// Two samples inside one bucket: interpolation runs over the
		// observed [20, 30], not the bucket's [10, 100].
		{"interpolates observed range", []float64{10, 100}, []float64{20, 30}, 0.5, 25},
		// Rank landing exactly on a bucket boundary resolves to the lower
		// bucket's upper edge (clamped to its max sample).
		{"rank on bucket edge", []float64{10, 100}, []float64{5, 5, 50, 50}, 0.5, 10},
		{"no bounds means one overflow bucket", nil, []float64{4, 8}, 0.5, 6},
	}
	for _, c := range cases {
		h := newHistogram(c.bounds)
		for _, v := range c.samples {
			h.Observe(v)
		}
		got := quantile(h, c.q)
		if diff := got - c.want; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("%s: Quantile(%g) = %g, want %g", c.name, c.q, got, c.want)
		}
	}
}

func TestHistogramQuantileMonotoneAndClamped(t *testing.T) {
	h := newHistogram(ExpBuckets(1, 2, 12))
	rng := mlmath.NewRNG(7)
	lo, hi := 1e18, -1e18
	for i := 0; i < 500; i++ {
		v := rng.Float64() * 3000
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
		h.Observe(v)
	}
	prev := -1e18
	for q := 0.0; q <= 1.0001; q += 0.01 {
		v := quantile(h, q)
		if v < prev {
			t.Fatalf("Quantile not monotone: Quantile(%g)=%g < previous %g", q, v, prev)
		}
		if v < lo || v > hi {
			t.Fatalf("Quantile(%g)=%g outside observed [%g, %g]", q, v, lo, hi)
		}
		prev = v
	}
}

func TestSpanNestingAndOrderingUnderManualClock(t *testing.T) {
	clock := &mlmath.ManualClock{T: time.Unix(1000, 0)}
	tr := NewTracer(clock)
	root := tr.StartSpan("query", nil)
	clock.Advance(time.Millisecond)
	child := tr.StartSpan("optimize", root)
	clock.Advance(2 * time.Millisecond)
	child.End()
	grand := tr.StartSpan("execute", root)
	clock.Advance(3 * time.Millisecond)
	grand.SetInt("work", 42).End()
	root.End()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	// IDs follow start order; parents link the hierarchy.
	if spans[0].Name != "query" || spans[0].ID != 1 || spans[0].Parent != 0 {
		t.Fatalf("root span wrong: %+v", spans[0])
	}
	if spans[1].Name != "optimize" || spans[1].Parent != 1 || spans[1].Duration != 2*time.Millisecond {
		t.Fatalf("optimize span wrong: %+v", spans[1])
	}
	if spans[2].Name != "execute" || spans[2].Parent != 1 || spans[2].Duration != 3*time.Millisecond {
		t.Fatalf("execute span wrong: %+v", spans[2])
	}
	if spans[0].Duration != 6*time.Millisecond {
		t.Fatalf("root duration = %v, want 6ms", spans[0].Duration)
	}
	if len(spans[2].Attrs) != 1 || spans[2].Attrs[0].Key != "work" || spans[2].Attrs[0].Int != 42 {
		t.Fatalf("execute attrs wrong: %+v", spans[2].Attrs)
	}
}

// TestTraceBitIdenticalUnderManualClockReplay is the determinism contract:
// the same workload against the same clock schedule produces byte-identical
// JSONL.
func TestTraceBitIdenticalUnderManualClockReplay(t *testing.T) {
	run := func() []byte {
		clock := &mlmath.ManualClock{T: time.Unix(5, 0)}
		tr := NewTracer(clock)
		root := tr.StartSpan("execute", nil)
		for i := 0; i < 3; i++ {
			clock.Advance(time.Duration(i+1) * time.Millisecond)
			sp := tr.StartSpan("op", root)
			sp.SetInt("rows", int64(i)).SetFloat("sel", 0.1*float64(i)).SetStr("kind", "scan")
			clock.Advance(time.Millisecond)
			sp.End()
		}
		root.End()
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("replayed trace differs:\n%s\nvs\n%s", a, b)
	}
	n, err := ValidateTraceJSONL(bytes.NewReader(a))
	if err != nil || n != 4 {
		t.Fatalf("ValidateTraceJSONL = %d, %v; want 4, nil", n, err)
	}
}

func TestMetricsJSONLSchemaAndValidation(t *testing.T) {
	r := NewRegistry()
	r.Counter("exec.queries").Add(3)
	r.Gauge("leon.calibrated").Set(0.75)
	h := r.Histogram("exec.work", ExpBuckets(1, 4, 8))
	h.Observe(12)
	h.Observe(1200)
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateMetricsJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil || n != 3 {
		t.Fatalf("ValidateMetricsJSONL = %d, %v; want 3, nil\n%s", n, err, buf.String())
	}
	// Schema drift must fail validation: drop a required field.
	broken := strings.Replace(buf.String(), `"count"`, `"cnt"`, 1)
	if _, err := ValidateMetricsJSONL(strings.NewReader(broken)); err == nil {
		t.Fatal("validator accepted a histogram line missing its count field")
	}
	bad := `{"type":"span","name":"x"}` + "\n"
	if _, err := ValidateTraceJSONL(strings.NewReader(bad)); err == nil {
		t.Fatal("validator accepted a span line missing id/parent/start/duration")
	}
	if _, err := ValidateTraceJSONL(strings.NewReader("not json\n")); err == nil {
		t.Fatal("validator accepted a non-JSON line")
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("shared.counter").Inc()
				r.Gauge("shared.gauge").Set(float64(i))
				r.Histogram("shared.hist", ExpBuckets(1, 2, 10)).Observe(float64(i % 100))
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("shared.counter").Value(); got != 8*500 {
		t.Fatalf("counter = %d, want %d", got, 8*500)
	}
	if got := r.Histogram("shared.hist", nil).Count(); got != 8*500 {
		t.Fatalf("histogram count = %d, want %d", got, 8*500)
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestCounterConcurrentAddsSumExactly has goroutines add different amounts to
// one counter at once, Inc and Add alike; the total must be exact (under
// -race in scripts/check.sh this is also the counter's data-race check).
func TestCounterConcurrentAddsSumExactly(t *testing.T) {
	const goroutines, adds = 8, 2000
	c := NewRegistry().Counter("c")
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				if i%2 == 0 {
					c.Inc()
				} else {
					c.Add(int64(g))
				}
			}
		}(g)
	}
	wg.Wait()
	want := int64(goroutines * adds / 2) // the Incs
	for g := 0; g < goroutines; g++ {
		want += int64(g * adds / 2)
	}
	if got := c.Value(); got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
}

// TestNilObservabilityAllocatesNothing pins the "nil is off, and free"
// contract: the full instrumentation call surface on nil receivers performs
// zero allocations.
func TestNilObservabilityAllocatesNothing(t *testing.T) {
	var tr *Tracer
	var reg *Registry
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.StartSpan("execute", nil)
		sp.SetInt("work", 1).SetFloat("sel", 0.5).SetStr("hint", "nohash")
		child := tr.StartSpan("op", sp)
		child.End()
		sp.End()
		reg.Counter("c").Inc()
		reg.Counter("c").Add(5)
		reg.Gauge("g").Set(1)
		reg.Histogram("h", nil).Observe(3)
	})
	if allocs != 0 {
		t.Fatalf("nil observability allocated %.1f times per op, want 0", allocs)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 10, 4)
	want := []float64{1, 10, 100, 1000}
	if len(b) != len(want) {
		t.Fatalf("ExpBuckets = %v", b)
	}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
	if ExpBuckets(0, 10, 4) != nil || ExpBuckets(1, 1, 4) != nil || ExpBuckets(1, 10, 0) != nil {
		t.Fatal("degenerate ExpBuckets args must yield nil")
	}
}
