// Package engine is the concurrent query-session front end of the relational
// engine: the layer a driver program talks to instead of wiring optimizer,
// executor, and estimator together by hand.
//
// It composes four mechanisms the ML4DB survey treats as prerequisites for
// deploying learned components inside a database (§4):
//
//   - Bounded admission: at most 8 sessions run at once; excess arrivals are
//     rejected immediately with ErrOverloaded rather than queued without
//     bound (load shedding).
//   - A shared plan cache keyed by the normalized query shape (hint set
//     included), the planning epoch, and the parallelism degree. A hit
//     replays the identical plan; a stats refresh, estimator install, or
//     design change publishes a new planning snapshot with the next epoch,
//     which makes every stale key unreachable. A query reads that snapshot
//     with one atomic load and takes no engine lock. In front of the cache,
//     a statement memo keyed by SQL text and hint-set name hands a repeated
//     text its parsed statement, column names and shape without lexing,
//     parsing or rendering anything; every epoch move drops it.
//   - Deterministic work budgets: per-query limits counted in executor work
//     units and materialized rows (exec.Budget), never wall time, so an
//     aborted query aborts at the same point on every replay.
//   - Graceful degradation: a statement's estimates are gathered and checked
//     before the join-order search; when the learned cardinality estimator
//     misbehaves — a non-finite or negative estimate — the search runs over
//     the classical histogram estimates instead and the engine counts the
//     fallback (Bao's safety contract: the learned
//     component may lose, but it must never take the system down with it).
//
// engine is a determinism-core package: it spawns no goroutines (concurrency
// is whatever its callers bring) and reads no ambient time or randomness, so
// a single-threaded replay of a recorded workload is byte-identical.
package engine
