// Package querystore is the engine's workload observatory: a deterministic,
// queryable record of what the database has been asked to do and how well
// its learned components served those requests.
//
// The engine feeds the store one Observation per executed query. The store
// maintains four connected views of that stream:
//
//   - a statement store, keyed by the engine's normalized query shape,
//     accumulating calls, work, rows, page misses, budget aborts, plan-cache
//     hits, estimator fallbacks, and estimated-vs-actual cardinality error
//     harvested from the executed plan tree — plus a predicate/column heat
//     map (which columns appear in filters and joins, with observed
//     selectivities), the input contract of index/physical-design advisors;
//   - windowed snapshots: a fixed-size ring of per-window aggregates
//     advanced by an injected mlmath.Clock, so replays under a ManualClock
//     are bit-identical;
//   - drift monitors over those windows — q-error trend per estimator
//     version, buffer-pool hit-rate trend, fallback-rate trend — emitting
//     typed DriftEvents with the window evidence attached;
//   - SQL system views (sys_statements, sys_windows, sys_drift, sys_models)
//     registered as virtual catalog tables, so the observatory is read back
//     through the normal planner/executor with plain SELECTs.
//
// Every exported record type is declared once as an obs.Schema (export.go);
// its JSONL line, its validator entry and its view are derived from that.
//
// The store carries the same "nil is off, and free" contract as obs: every
// method on a nil *Store no-ops without allocating, so instrumented code
// needs no conditionals and pays nothing when observation is disabled.
package querystore
