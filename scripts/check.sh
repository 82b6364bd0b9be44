#!/usr/bin/env bash
# check.sh — the full correctness gate, run locally and by CI.
#
# Order matters: cheap structural checks first, then the project's own
# static-analysis suite (cmd/ml4db-vet), then race-enabled tests.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

# The documentation contract: every internal package has a doc.go, every
# docs/*.md page is reachable from the README or the docs index, and no
# relative markdown link is dead. Docs drift fails like a broken test.
echo "==> ml4db-docslint"
go run ./cmd/ml4db-docslint

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

# The project's own analyzer suite, in strict-suppression mode so stale
# //ml4db:allow comments fail the gate. The wall-clock budget keeps the
# module-wide call-graph tier honest: the whole run (including go run's
# build step) must stay interactive, or vet stops being something people
# run before every commit.
echo "==> ml4db-vet -strict-suppress ./..."
vet_budget=15
vet_start=$(date +%s)
go run ./cmd/ml4db-vet -strict-suppress ./...
vet_elapsed=$(( $(date +%s) - vet_start ))
echo "    ml4db-vet took ${vet_elapsed}s (budget ${vet_budget}s)"
if [ "$vet_elapsed" -gt "$vet_budget" ]; then
    echo "ml4db-vet exceeded its ${vet_budget}s wall-clock budget (took ${vet_elapsed}s)" >&2
    exit 1
fi

echo "==> go test -race ./..."
go test -race ./...

# bench/ is a module of its own (the end-to-end SQL benchmark), so the ./...
# patterns above skip it: vet it and run its unit tests and -quick smoke here.
echo "==> bench module (go vet + go test)"
(cd bench && go vet ./... && go test ./...)

# Compile-and-run the kernel benchmarks once (-benchtime=1x): not a timing
# measurement, just a guard that the serial-vs-parallel benchmark paths and
# their determinism checks keep working. Full numbers: ml4db-bench -kernels.
echo "==> kernel benchmarks (smoke, 1 iteration)"
go test -run '^$' -bench 'MatMul|MLPFit' -benchtime=1x ./internal/mlmath/ ./internal/nn/

# Observability smoke: run one traced workload, then re-validate the emitted
# JSONL with the standalone checker, so any drift in the span/metric schemas
# fails the gate rather than silently breaking downstream consumers.
echo "==> observability smoke (traced query + JSONL schema validation)"
obsdir=$(mktemp -d)
trap 'rm -rf "$obsdir"' EXIT
go run ./cmd/ml4db-bench -trace "$obsdir/spans.jsonl" -metrics "$obsdir/metrics.jsonl" -trace-queries 2
go run ./cmd/ml4db-tracecheck -trace "$obsdir/spans.jsonl" -metrics "$obsdir/metrics.jsonl"

# Serving smoke: exercise the modelsvc lifecycle end to end (registry round
# trip, batched-vs-serial bit identity, canary gate blocking a worse
# candidate, admission control) and re-validate its metrics JSONL. The bench
# exits nonzero if any serving contract is violated.
echo "==> serving smoke (modelsvc registry + batching + canary gate)"
go run ./cmd/ml4db-bench -serve -quick -serve-out "$obsdir/BENCH_serve.json" -metrics "$obsdir/serve_metrics.jsonl"
go run ./cmd/ml4db-tracecheck -metrics "$obsdir/serve_metrics.jsonl"

# Engine smoke: run the query-session front end contracts end to end — exact
# plan-cache hit accounting, >=1.5x repeated-workload speedup, admission
# overflow exactness, and fallback-never-fails under a broken learned
# estimator. The bench exits nonzero if any engine contract is violated.
echo "==> engine smoke (plan cache + admission + fallback contracts)"
go run ./cmd/ml4db-bench -engine -quick -engine-out "$obsdir/BENCH_engine.json"

# Storage smoke: larger-than-memory scan correctness through a small pool,
# learned-eviction canary gating (trained scorer promoted and beating LRU,
# constant scorer rejected), and bit-identical eviction replay. The bench
# exits nonzero if any storage contract is violated.
echo "==> storage smoke (heap pages + buffer pool + learned eviction)"
go run ./cmd/ml4db-bench -storage -quick -storage-out "$obsdir/BENCH_storage.json"

# Querystore smoke: run a traced workload through the engine with the
# workload observatory attached, read the accounting back through a real
# `SELECT * FROM sys_statements` (the bench exits nonzero on any mismatch
# or on a non-byte-identical replay export), then re-validate the emitted
# querystore JSONL with the standalone checker.
echo "==> querystore smoke (statement accounting + sys views + replay export)"
go run ./cmd/ml4db-bench -querystore -quick -querystore-out "$obsdir/BENCH_querystore.json" -querystore-export "$obsdir/querystore.jsonl"
go run ./cmd/ml4db-tracecheck -querystore "$obsdir/querystore.jsonl"

# Autopilot smoke: close the self-driving loop on live telemetry — a mined
# beneficial index adopted and kept through its shadow trial, an unselective
# candidate rejected at the what-if gate, a stale-stats-baited harmful view
# adopted then auto-dropped, byte-identical two-replay event ledgers, and
# sys_tuning read back through SQL. The bench exits nonzero on any violation.
echo "==> autopilot smoke (index adoption + canary revert + replay)"
go run ./cmd/ml4db-bench -autopilot -quick -autopilot-out "$obsdir/BENCH_autopilot.json"

# Executor smoke: partitioned parallel operators end to end — serial-vs-
# parallel bit identity (rows, work, counters) including across pools with
# different worker counts, budget-abort identity down to the typed error,
# and plan-cache coherence across the parallelism knob. The bench exits
# nonzero if any exchange contract is violated. (The -race sweep above
# already covers the concurrent shard and buffer-pool paths.)
echo "==> executor smoke (partitioned operators + determinism contracts)"
go run ./cmd/ml4db-bench -exec -quick -exec-out "$obsdir/BENCH_exec.json"

echo "All checks passed."
