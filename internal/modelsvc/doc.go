// Package modelsvc is the model lifecycle subsystem: the SysML layer that
// owns model versioning and deployment apart from the learned components
// themselves (the separation Baihe argues ML4DB needs). A learned component
// is only production-viable if it can be retrained, validated, and swapped
// into the serving path without regressing the system it replaced; this
// package provides the two pieces of that loop:
//
//   - Registry: a versioned on-disk model store. Every published checkpoint
//     gets a manifest (version, architecture hash, payload checksum, byte
//     count, training metadata, creation instant from an injected clock);
//     loads verify the checksum and architecture hash, so a truncated,
//     bit-flipped, or mismatched checkpoint is rejected before it can reach
//     the serving path. List returns the version history; Load with
//     version 0 reads the newest.
//
//   - Rollout: guarded deployment. A candidate model shadows the incumbent
//     on live observed requests; a canary gate compares windowed error and
//     latency deltas; promotion is an atomic hot-swap under the rollout
//     lock (readers always see exactly one coherent version), and demotion
//     falls back to the previous incumbent or a configured expert fallback.
//     A candidate with worse windowed error is provably never promoted. A
//     *Rollout is itself a Predictor serving its incumbent, and Observe
//     reports the incumbent's error, so a learned slot is one Rollout with
//     no wrapper around it (storage.NewScorerRollout, cardest.DriftAdapter).
//
// Contract:
//
//   - Determinism. modelsvc is a core package under the determinism
//     analyzer: no ambient clock reads (an injected mlmath.Clock times
//     shadow predictions, so canary decisions replay exactly under
//     ManualClock), no math/rand, and no goroutine launches. The Rollout
//     coordinates its readers and observers with one RWMutex.
//
//   - Models are immutable once deployed. The rollout hands out the same
//     Predictor to every reader; retraining must build a new model (clone,
//     then train) and deploy it as a candidate, never mutate the incumbent
//     in place. cardest.DriftAdapter follows this discipline.
//
//   - Everything is instrumented. Shadow errors and latencies, shadow
//     wins/losses, promotions, rejections, and demotions all land in an
//     optional obs.Registry (nil is off, and free).
//
// docs/SERVING.md documents the registry layout, the rollout state machine,
// the determinism contract, and the micro benchmark (BenchmarkRolloutObserve)
// that measures shadow-mode overhead.
package modelsvc
