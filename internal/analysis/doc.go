// Package analysis is a from-scratch static-analysis framework for this
// module, built only on the standard library (go/ast, go/parser, go/types —
// no golang.org/x/tools dependency, consistent with the zero-dep go.mod).
//
// It exists because the repository's correctness story — deterministic
// training under a fixed seed, numerically safe gradient code, and loud
// failure on serialization errors — is a set of conventions that nothing
// enforced. The analyzers in this package turn those conventions into
// machine-checked invariants, run by cmd/ml4db-vet over the whole module.
//
// There is one analyzer type: an Analyzer's Run sees one type-checked package
// through a Pass. An analyzer that checks a transitive contract — determinism's
// "core code never reaches a wall-clock read, global-RNG draw or go statement"
// — asks the Pass for the module call graph (callgraph.go), which Analyze
// builds at most once per call and only when some analyzer asks.
//
// A finding can be suppressed, with an explicit reason, by an
//
//	//ml4db:allow <analyzer> "reason"
//
// comment at the end of the flagged line, or standing alone on the line
// directly above it (see suppress.go). Suppressions without a reason are
// themselves diagnostics.
package analysis
