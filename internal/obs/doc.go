// Package obs is the deterministic observability layer: hierarchical spans
// and a metrics registry, wired through the engine (optimize → execute →
// per-operator EXPLAIN ANALYZE) and the learned components (training-loss
// curves, q-error distributions, per-episode rewards, learned-index hit
// rates).
//
// Contract:
//
//   - Determinism. Every timing read flows through an injected mlmath.Clock
//     (the Tracer never calls time.Now itself), so a trace captured under
//     ManualClock is bit-identical across replays: same workload + same
//     clock schedule → byte-identical JSONL. The determinism analyzer
//     (cmd/ml4db-vet) enforces this: internal/obs is a core package where a
//     direct time.Now is a vet error.
//
//   - Nil is off, and free. A nil *Tracer returns nil *Span from StartSpan,
//     and every Span/Counter/Gauge/Histogram method is a no-op on a nil
//     receiver. Instrumented hot paths therefore cost one pointer test and
//     zero allocations when observability is disabled — verified by
//     TestNilObservabilityAllocatesNothing; what an enabled instrument costs
//     a query is bench/'s obs.on_cost_us_p50.
//
//   - Metrics are named and label-free. Names are dot-separated,
//     lowercase, component-first: "exec.work", "nn.fit.epoch_loss",
//     "qo.bao.regressions", "learnedindex.rmi.model_hit". Variable parts
//     (an arm index) are appended as a final segment. The first
//     registration of a histogram name fixes its buckets.
//
//   - Snapshots are stable. Exporters emit one JSON object per line
//     (JSONL): spans in start order, metrics in sorted-name order, with a
//     schema-stable field set (spans: type,id,parent,name,start,duration
//     [,attrs]; metrics: type,name,value or the histogram fields).
//     ValidateTraceJSONL/ValidateMetricsJSONL check that schema; they back
//     cmd/ml4db-tracecheck and every ml4db-bench suite that writes JSONL.
//
//   - One declaration per record type. A Schema lists a record's fields
//     once; its JSONL line, its validator entry (Format, ValidateJSONL) and
//     its sys_* view (View) are derived from that list, here and in the
//     packages above (querystore, autopilot). Ledger is the bounded,
//     sequence-numbering ring those packages keep their timelines in.
//
// Concurrency: Tracer and Registry are mutex-guarded and safe for
// concurrent use; a Span's attributes must only be set by the goroutine
// that started it (enforced by convention, as with contexts).
package obs
