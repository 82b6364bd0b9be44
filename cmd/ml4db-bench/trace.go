package main

// The trace suite runs a small instrumented workload (spans around each
// query's optimize and execute phases plus one span per plan operator, and the
// learned components' counters and histograms) and writes the schema-stable
// spans.jsonl and metrics.jsonl that cmd/ml4db-tracecheck validates; it
// publishes no BENCH file. What instrumentation costs is bench/'s
// obs.on_cost_us_p50 and obs.trace_overhead_ratio; that the nil (off) path
// allocates nothing is obs.TestNilObservabilityAllocatesNothing.

import (
	"ml4db/internal/experiments"
	"ml4db/internal/mlmath"
	"ml4db/internal/obs"
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
