// Command bench is the end-to-end SQL benchmark of the ml4db engine: five
// workloads driven through Session.Query in a closed loop with one client,
// every result checked against a brute-force reference, end-to-end metrics
// from an untraced pass and per-layer metrics from a traced one. README.md
// in this directory is the glossary; BENCHMARK.json at the repository root
// is the contract.
package main

import (
	"flag"
	"fmt"
	"os"
)

// runSeconds is BENCHMARK.json's run_seconds: how long the driver has every
// run measure.
const runSeconds = 15

func main() {
	var (
		workload  = flag.String("workload", "", "run this one workload in this process (default: all five, each in a child process)")
		seed      = flag.Uint64("seed", 1, "seed for data, statements and their order")
		seconds   = flag.Float64("seconds", runSeconds, "length of the measured pass")
		trace     = flag.Int("trace", 0, "with -workload: 0 = untraced pass, end-to-end metrics; 1 = traced pass, per-layer metrics")
		quick     = flag.Bool("quick", false, "smoke run: a tenth of the rows, about 1 % of the ops, gates not applied")
		selfcheck = flag.Bool("selfcheck", false, "run the whole set twice on one seed and compare")
		spread    = flag.Int("spread", 0, "run the untraced pass on this many seeds and print each metric's quartile spread")
		outDir    = flag.String("out", "bench/out", "directory for span files, results.json and scratch files")
	)
	flag.Parse()
	cfg := config{seed: *seed, seconds: *seconds, quick: *quick, outDir: *outDir}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	var err error
	switch {
	case *workload != "":
		err = runOne(cfg, *workload, *trace != 0)
	case *selfcheck:
		err = runSelfcheck(cfg)
	case *spread > 0:
		err = runSpread(cfg, *spread)
	default:
		err = runAll(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// config is what every mode needs to know.
type config struct {
	seed    uint64
	seconds float64
	quick   bool
	outDir  string
}
