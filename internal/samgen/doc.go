// Package samgen addresses the §3.3 open problem of generating high-quality
// training data: a SAM-style workload-aware database generator (after Yang
// et al., SIGMOD 2022). Given only a query workload and its observed
// cardinalities over a *hidden* database (the privacy-constrained setting the
// paper describes — tuners cannot see real customer data), it synthesizes a
// database whose behavior on that workload matches the hidden one.
//
// The generator fits a piecewise-uniform joint density over the filtered
// attributes via iterative proportional fitting against the workload
// constraints, then samples rows from it. SAM uses an autoregressive neural
// model; the IPF grid is the classical statistical analogue with the same
// supervision signal (query, cardinality) and the same evaluation: workload
// q-error of the generated database.
package samgen
