package main

// Observability suites of ml4db-bench:
//
//   - trace runs a small instrumented workload (spans around each query's
//     optimize and execute phases plus one span per plan operator, and the
//     learned components' counters and histograms) and writes the
//     schema-stable spans.jsonl and metrics.jsonl that cmd/ml4db-tracecheck
//     validates; it publishes no BENCH file;
//   - obs measures the runtime overhead the instrumentation adds to query
//     execution — untraced vs EXPLAIN ANALYZE vs full tracing — and verifies
//     the "nil is off, and free" contract by counting allocations on the
//     nil-receiver call surface.

import (
	"fmt"
	"testing"

	"ml4db/internal/experiments"
	"ml4db/internal/mlmath"
	"ml4db/internal/obs"
	"ml4db/internal/qo"
	"ml4db/internal/sqlkit/exec"
	"ml4db/internal/sqlkit/optimizer"
	"ml4db/internal/sqlkit/plan"
)

// traceQueries is the number of traced query lifecycles in the trace suite.
const traceQueries = 5

// traceSuite executes the instrumented workload and writes the span and
// metric JSONL artifacts, each validated before it reaches disk.
func traceSuite(seed uint64, _ bool, dir string) (any, error) {
	clock := mlmath.SystemClock{}
	tr := obs.NewTracer(clock)
	reg := obs.NewRegistry()
	if err := experiments.TraceWorkload(seed, traceQueries, tr, reg, clock); err != nil {
		return nil, err
	}
	if err := writeJSONL(dir, "spans.jsonl", tr.WriteJSONL, obs.ValidateTraceJSONL); err != nil {
		return nil, err
	}
	return nil, writeJSONL(dir, "metrics.jsonl", reg.WriteJSONL, obs.ValidateMetricsJSONL)
}

type obsBenchResult struct {
	Name        string  `json:"name"`
	BaselineSec float64 `json:"baseline_sec"`
	ObservedSec float64 `json:"observed_sec"`
	OverheadPct float64 `json:"overhead_pct"`
	Queries     int     `json:"queries"`
}

type obsBenchReport struct {
	// NilPathAllocs must be zero: the allocation count of the full
	// nil-receiver instrumentation surface per operation.
	NilPathAllocs float64          `json:"nil_path_allocs"`
	Results       []obsBenchResult `json:"results"`
}

// obsSuite times a fixed query workload untraced vs instrumented.
func obsSuite(seed uint64, quick bool, _ string) (any, error) {
	queries := 20
	if quick {
		queries = 5
	}
	env, plans, err := obsBenchWorkload(seed, queries)
	if err != nil {
		return nil, err
	}
	runAll := func(analyze bool) error {
		for _, p := range plans {
			if _, err := env.Exec.Execute(p, exec.Options{Analyze: analyze}); err != nil {
				return err
			}
		}
		return nil
	}

	// Baseline: observability fully off.
	env.Instrument(nil, nil, nil)
	if err := runAll(false); err != nil { // warm up
		return nil, err
	}
	base := bestOf(quick, func() { _ = runAll(false) })

	// EXPLAIN ANALYZE only (per-operator stats, no tracer).
	analyze := bestOf(quick, func() { _ = runAll(true) })

	// Full tracing: fresh tracer and registry per rep so span accumulation
	// does not grow across reps.
	traced := bestOf(quick, func() {
		clock := mlmath.SystemClock{}
		env.Instrument(obs.NewTracer(clock), obs.NewRegistry(), clock)
		_ = runAll(true)
	})
	env.Instrument(nil, nil, nil)

	nilAllocs := testing.AllocsPerRun(200, func() {
		var tr *obs.Tracer
		var reg *obs.Registry
		sp := tr.StartSpan("x", nil)
		sp.SetInt("k", 1)
		sp.End()
		reg.Counter("c").Inc()
		reg.Histogram("h", nil).Observe(1)
	})

	rep := obsBenchReport{
		NilPathAllocs: nilAllocs,
		Results: []obsBenchResult{
			{Name: "explain_analyze", BaselineSec: base, ObservedSec: analyze,
				OverheadPct: 100 * (analyze - base) / base, Queries: len(plans)},
			{Name: "trace_metrics_analyze", BaselineSec: base, ObservedSec: traced,
				OverheadPct: 100 * (traced - base) / base, Queries: len(plans)},
		},
	}
	if nilAllocs != 0 {
		return nil, fmt.Errorf("nil observability path allocated %.1f times per op, want 0", nilAllocs)
	}
	for _, r := range rep.Results {
		fmt.Printf("%-24s baseline %8.5fs  observed %8.5fs  overhead %+.1f%%\n",
			r.Name, r.BaselineSec, r.ObservedSec, r.OverheadPct)
	}
	return rep, nil
}

// obsBenchWorkload plans a fixed set of star queries to execute repeatedly.
func obsBenchWorkload(seed uint64, queries int) (*qo.Env, []*plan.Node, error) {
	env, gen, err := experiments.NewQoTestbed(seed, 4000)
	if err != nil {
		return nil, nil, err
	}
	var plans []*plan.Node
	for i := 0; i < queries; i++ {
		q := gen.QueryWithDims(2)
		p, err := env.Opt.Plan(q, optimizer.NoHint())
		if err != nil {
			return nil, nil, err
		}
		plans = append(plans, p)
	}
	return env, plans, nil
}
