#!/usr/bin/env bash
# check.sh — the full correctness gate, run locally and by CI.
#
# Order matters: cheap structural checks first, then the project's own
# static-analysis suite (cmd/ml4db-vet), then race-enabled tests.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

# go vet's copylocks is the project's check against copying a value that
# holds a sync primitive (ml4db-vet has no analyzer of its own for it).
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
# module-wide call graph (built once for determinism's transitive rule)
# honest: the whole run (including go run's build step) must stay
# interactive, or vet stops being something people run before every commit.
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

# A short fuzz budget on the SQL parser, on top of the committed seed corpus
# (testdata/fuzz/FuzzParse, which holds a 7-table star join and a statement
# with ORDER BY ... DESC, LIMIT, <>, !=, a negative literal and a trailing
# semicolon) the race sweep above already ran: no panic, the same parse
# twice, every accepted statement inside its tables' columns, and the round
# trip — an accepted statement rendered back as SQL re-parses to an equal
# Stmt, which holds the lexer's substring tokens and the parser's once-sized
# lists. A finding is written to that corpus directory and fails the gate.
echo "==> fuzz (sqlparse.FuzzParse, 5s)"
go test -run '^$' -fuzz FuzzParse -fuzztime 5s ./internal/sqlkit/sqlparse/

# The same budget on the heap-page decoder, over its corpus
# (testdata/fuzz/FuzzPageDecode): no panic on any bytes, and on every page
# that verifies, the scan's live-slot and column decoders read what the
# slot-at-a-time Used/Value loop reads, and the in-place filter keeps what
# an unsigned-range loop over them keeps (lo > hi, one value, all of int64).
echo "==> fuzz (storage.FuzzPageDecode, 5s)"
go test -run '^$' -fuzz FuzzPageDecode -fuzztime 5s ./internal/storage/

# The same budget on the pool's read paths, over its corpus
# (testdata/fuzz/FuzzPoolReads: sequential fetches over a corrupted page,
# dirty pages written back between fetches, one frame over two files, scan
# reads over masks and resident pages, a scan run outdated by a write-back):
# every page a fetch or a scan read returns holds what was last written to it,
# Stats but Reads and PagesRead and the eviction log equal the reference
# pool's, only the corrupted page fails, with *ChecksumError, a fetch reads one
# page on a miss or a failed read and none on a hit, and a scan reads no page
# it does not serve and leaves the replacement state (the tick, the recency
# order, every frame's access history, the eviction log) as it found it.
echo "==> fuzz (storage.FuzzPoolReads, 5s)"
go test -run '^$' -fuzz FuzzPoolReads -fuzztime 5s ./internal/storage/

# The same budget on reopening a heap file, over its seeds: a fuzzed sequence
# of good, corrupted, misnumbered, too-wide and torn pages opens exactly when
# every page is good, or fails with its first bad page's typed error; an
# opened file's free-space map and zones hold every live row and value, since
# the zones decide which pages a scan reads from disk.
echo "==> fuzz (storage.FuzzHeapFileOpen, 5s)"
go test -run '^$' -fuzz FuzzHeapFileOpen -fuzztime 5s ./internal/storage/

# The same budget on the hash join, over its corpus
# (testdata/fuzz/FuzzHashJoin: build sides of 0, 1 and 2 rows, duplicates,
# MinInt64/MaxInt64, span_extremes with MinInt64, MaxInt64 and 0 in one build,
# sparse_wide with build keys 1 000 apart): on any build and probe keys, and
# any EstRows, it returns the probe-major reference loop's rows in its order
# and the nested-loop join's as a multiset, and partitioned three ways it
# equals the serial run, under a fuzzed work or row limit too.
echo "==> fuzz (exec.FuzzHashJoin, 5s)"
go test -run '^$' -fuzz FuzzHashJoin -fuzztime 5s ./internal/sqlkit/exec/

# The same budget on the two storage modes, over its corpus
# (testdata/fuzz/FuzzScanModes: 1 to 60 columns, empty and multi-page tables,
# MinInt64/MaxInt64 values, every operator, extreme_literals with LT MinInt64,
# GT MaxInt64, a BETWEEN whose Hi wrapped and NE, hash_probe_skips and
# hash_probe_skips_first): a table
# and its spilled twin, behind a pool random fetches warm, give SeqScan at
# P = 1 and P = 3 and IndexScan the same rows, Counters but PageMiss and
# Actuals but PageMisses (and the rows of the pages the modelled zone maps
# skip), and leave no page pinned; the P = 3 disk scan charges exactly what
# the serial one does, PageMiss included, and no scan reads a page it does
# not serve; and the rows
# are those a plain Pred.Eval row loop keeps; a hash join of fuzzed in-memory
# build keys probing the spilled table returns a probe-major loop's rows and
# skips the modelled pages, and under every work limit its serial and
# partitioned runs abort alike. Each input spills a table, so a new one is
# minimised for at most a second.
echo "==> fuzz (exec.FuzzScanModes, 5s)"
go test -run '^$' -fuzz FuzzScanModes -fuzztime 5s -fuzzminimizetime 1s ./internal/sqlkit/exec/

# The same budget on checkpoint loading, over its corpus
# (testdata/fuzz/FuzzLoadCheckpoint: valid, truncated and foreign streams,
# and payloads wrapped in an envelope with a correct checksum and arch hash):
# every stream loads or is a *CheckpointError with the model bit-unchanged.
echo "==> fuzz (nn.FuzzLoadCheckpoint, 5s)"
go test -run '^$' -fuzz FuzzLoadCheckpoint -fuzztime 5s ./internal/nn/

# The same budget on the model registry, over its corpus
# (testdata/fuzz/FuzzRegistryLoad): no manifest or payload on disk panics
# List, Load or LoadModule, and every payload Load returns hashes to its
# manifest's checksum.
echo "==> fuzz (modelsvc.FuzzRegistryLoad, 5s)"
go test -run '^$' -fuzz FuzzRegistryLoad -fuzztime 5s ./internal/modelsvc/

# The same budget on the telemetry validator, over its corpus
# (testdata/fuzz/FuzzValidateJSONL: the span, metrics, querystore and tuning
# writers' outputs and malformed files): no bytes panic obs.ValidateJSONL
# over the four formats, and a file accepted as one format is accepted by
# that format alone.
echo "==> fuzz (ml4db-tracecheck.FuzzValidateJSONL, 5s)"
go test -run '^$' -fuzz FuzzValidateJSONL -fuzztime 5s ./cmd/ml4db-tracecheck/

# The same budget on the whole of Session.Query, seeded with the SQL corpus: no
# panic, and a text sent again on the same session (a statement-memo hit, after
# a statement of another width and plan size reused the session's arena) or to
# a fresh engine returns the same error, or the same columns, rows, work,
# counters and per-operator actuals, as its first call.
echo "==> fuzz (engine.FuzzSessionQuery, 5s)"
go test -run '^$' -fuzz FuzzSessionQuery -fuzztime 5s ./internal/engine/

# bench/ is a module of its own (the end-to-end SQL benchmark), so the ./...
# patterns above skip it: vet it and run its unit tests and -quick smoke here.
echo "==> bench module (go vet + go test)"
(cd bench && go vet ./... && go test ./...)

# Compile-and-run the micro benchmarks once (-benchtime=1x): not a timing
# measurement, just a guard that the kernel worker sweeps (MatMul, MLPFit),
# the buffer-pool fetch paths, the optimizer's join-order DP, one plan per
# executor operator (the ExecOps pattern also matches scan/P=2, hashjoin/P=2
# and hashagg/P=2, the partitioned forms), the warm Session.Query front end and
# a hash join and a top-N through the session's arena, a
# plan-cache hit, a cold planning pass through the engine's estimator guard,
# the cold front end's parse, shape and query-store record steps and a
# stable vs shadow Rollout.Observe keep working.
# Full numbers: the same command without -benchtime=1x, with -cpu 1,2,4 for
# the benchmarks whose pool is sized by GOMAXPROCS (docs/PERFORMANCE.md).
echo "==> micro benchmarks (smoke, 1 iteration)"
go test -run '^$' -bench 'MatMul|MLPFit|PoolFetch|PlanStar|ExecOps|QueryWarm|PlanCacheGet|PlanFallback|ColdFrontEnd|RolloutObserve' -benchtime=1x ./internal/mlmath/ ./internal/nn/ ./internal/storage/ ./internal/sqlkit/optimizer/ ./internal/sqlkit/exec/ ./internal/engine/ ./internal/modelsvc/

echo "All checks passed."
