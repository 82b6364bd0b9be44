// Package experiments implements the reproduction harness: one function per
// paper artifact (Figure 1, Table 1) and per comparative claim (E1–E25),
// plus the ablations DESIGN.md calls out. Each experiment returns a Report
// with the measured rows and whether the claimed direction holds, so the
// bench targets and the ml4db-bench command share one implementation and
// EXPERIMENTS.md can be regenerated mechanically.
package experiments
