// Package mlmath provides the numerical substrate shared by every learned
// component in this repository: a deterministic random number generator,
// dense vectors and matrices, cache-blocked matrix kernels, a worker pool
// for data-parallel kernels, linear solvers, and summary statistics.
//
// Everything is implemented from scratch on the standard library so that the
// learned indexes, learned optimizers, and estimators built on top are fully
// reproducible: the same seed always yields the same model.
//
// # Memory layout
//
// Mat stores elements in row-major order in a single contiguous slice:
// element (i, j) lives at Data[i*Cols+j], and Row(i) returns a zero-copy
// view of row i. All kernels in this package (MatMul, MulVec, the
// blocked loops) iterate in ways that respect this layout — unit-stride
// inner loops over a row — which is where most of their speed comes from.
//
// # Shape-panic policy
//
// Dimension mismatches (multiplying a 3×4 by a 5×2, dotting vectors of
// different lengths) are caller bugs, not runtime conditions: they panic
// immediately with a message naming the shapes instead of returning an
// error. Model code would have no sensible way to recover, and a silent
// wrong-shape broadcast is the worst failure mode a numerical library can
// have. Functions whose inputs come from data rather than code (solvers on
// near-singular systems, statistics of empty samples) return errors or
// defined zero values instead.
//
// # Determinism under parallelism
//
// RNG is deterministic but not safe for concurrent use; create one per
// goroutine (or shard) and derive its seed from the experiment seed.
//
// Pool is the only sanctioned way to use goroutines in the core model
// packages (the determinism analyzer in internal/analysis enforces this).
// Work is split by ShardRange, a pure function of (items, workers, shard),
// into contiguous blocks. Two levels of guarantee follow:
//
//   - Output-partitioned kernels (MatMul, batched inference) compute
//     each output element exactly as the serial kernel does, so their results
//     are bit-identical to serial for every worker count. These may freely
//     use the process-wide Shared() pool.
//   - Reductions across shards (parallel gradient accumulation in package
//     nn) combine per-shard partials in fixed shard order, so they are
//     bit-identical across runs for a fixed seed and worker count, but may
//     differ across worker counts (float addition is not associative).
//     Training therefore takes an explicitly injected *Pool — the worker
//     count is part of the experiment configuration — and a nil *Pool always
//     means strictly serial execution.
package mlmath
