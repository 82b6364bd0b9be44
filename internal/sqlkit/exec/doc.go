// Package exec executes physical plans against the in-memory catalog.
//
// Besides producing result rows, the executor counts deterministic work
// units (tuples scanned, hash probes, comparisons). That counter is the
// latency signal the learned optimizers train on: it is perfectly
// reproducible across runs, unlike wall-clock time, while preserving the
// ordering of plan quality. A work budget implements the execution timeouts
// that Balsa (§3.3) relies on to avoid unpredictable stalls.
//
// Operators exchange column batches, not rows: an operator is told which of
// its output columns anything above it reads, an in-memory scan hands out
// the table's own columns without copying (a filtered one with its kept row
// numbers as a selection vector), joins pass position vectors and gather the
// wanted columns once, and rows are built in exactly one place — after the
// requested ORDER BY and LIMIT (Options.Output) have picked the survivors.
//
// Every partitionable operator has one loop body, written over a contiguous
// range of its input. A plan node with Partitions ≤ 1 runs the body once
// over the whole input: the serial executor. With Partitions > 1 the input
// splits into contiguous ranges (mlmath.ShardRange), shards run on the
// mlmath.Pool passed in Options.Pool, each charging a private budget
// account, and the coordinator folds accounts and rows in shard order,
// re-running inline the one shard whose charges would cross a budget limit.
// Parallel execution is therefore bit-identical to serial — same rows, same
// counters, same typed budget aborts, same explain trees — regardless of
// worker count. See docs/EXECUTOR.md for the full contract and the
// determinism argument.
package exec
