// Package cardest implements the cardinality estimators of the paper's §3.3
// open-problem discussion:
//
//   - HistEstimator / SampleEstimator: the classical baselines (histograms
//     with independence assumptions; correlation-preserving row samples);
//   - MLPEstimator: a query-driven learned estimator (accurate on correlated
//     data, slow to train, vulnerable to drift);
//   - NNGP: a lightweight Bayesian estimator after Zhao et al. (SIGMOD 2022)
//     whose "training" is a single kernel linear solve — the model-efficiency
//     story;
//   - DriftAdapter: Warper-style monitoring and retraining under data and
//     workload shift; its candidates deploy through a modelsvc.Rollout,
//     which owns promotion, rejection and their counts.
//
// All estimators answer single-table conjunctive range queries over the fact
// table of the synthetic star schema and implement the same interface, so
// they can also plug into the classical optimizer as its scan estimator (the
// ML-enhanced integration path).
//
// # Determinism and parallelism
//
// Every estimator trains from injected *mlmath.RNG state; a fixed seed
// reproduces a fixed model. MLPEstimator optionally takes an mlmath.Pool:
// the pool parallelizes both mini-batch training (same seed + same worker
// count → bit-identical model, per the package nn contract) and batched
// inference via EstimateFractionBatch, which is bit-identical to the serial
// per-query loop for every worker count. The Pool field defaults to nil —
// strictly serial — so recorded experiment numbers do not depend on the
// machine's core count. Harnesses should estimate through EstimateAll,
// which routes to the batched path when the estimator provides one.
package cardest
