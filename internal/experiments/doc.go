// Package experiments implements the reproduction harness: one function per
// paper artifact (Figure 1, Table 1) and per comparative claim (E1–E25),
// plus the ablations DESIGN.md calls out. Each experiment returns a Report
// with the measured rows and whether the claimed direction holds. The root
// BenchmarkExperiment is the one printer of those rows (EXPERIMENTS.md is
// regenerated from it) and TestFastExperimentsHold the tier-1 check of the
// claimed directions; both call the same runners.
package experiments
