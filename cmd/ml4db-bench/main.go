// Command ml4db-bench runs the reproduction harness: every experiment from
// DESIGN.md (paper artifacts F1/T1, claims E1–E25, and the ablations),
// printing the regenerated rows and whether each paper claim held — or, with
// -suite, the registered bench suites: the end-to-end scenarios whose report
// or JSONL artifact no `go test`, bench/ metric or experiment holds
// (docs/README.md has the table of which harness answers which question).
//
// Usage:
//
//	ml4db-bench [-seed N] [-run ID[,ID...]] [-list]
//	ml4db-bench -suite NAME[,NAME...]|all [-seed N] [-quick] [-out-dir DIR]
//
//	suite       fails unless                                          also writes
//	trace       an instrumented workload's JSONL passes its           spans.jsonl
//	            validators (publishes no BENCH file)                  metrics.jsonl
//	querystore  sys_statements accounting is exact, two replays       querystore.jsonl
//	            export byte-identical valid JSONL
//	autopilot   the good index is adopted and kept, the harmful      tuning.jsonl
//	            view dropped, the ledger replays, sys_tuning matches it
//
// A failing suite prints the violation, writes nothing, and makes the command
// exit 1. A passing one writes DIR/BENCH_<suite>.json: its report under one
// envelope (suite, gomaxprocs, numcpu, goversion, seed, quick, report), so a
// field docs/*.md calls `overhead` is `.report.overhead`. Timings in a report are
// recorded, never compared: no suite fails on a wall-clock number. -quick
// shrinks every scenario to CI size (scripts/check.sh runs `-suite all
// -quick`); the root BENCH_*.json are `go run ./cmd/ml4db-bench -suite all`.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"ml4db/internal/experiments"
)

// A suite is one registered benchmark. run builds the scenario, checks its
// contracts, and returns the report to publish (nil when the suite only
// writes JSONL artifacts into dir). Flags, the environment envelope,
// repetition counts, file writing and the exit code all belong to this file:
// a suite never sees an output path.
type suite struct {
	name string
	run  func(seed uint64, quick bool, dir string) (report any, err error)
}

var suites = []suite{
	{"trace", traceSuite},
	{"querystore", querystoreSuite},
	{"autopilot", autopilotSuite},
}

// envelope is the top-level shape of every BENCH_<suite>.json. It carries no
// commit hash: a committed file would always name its parent.
type envelope struct {
	Suite      string `json:"suite"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	GoVersion  string `json:"goversion"`
	Seed       uint64 `json:"seed"`
	Quick      bool   `json:"quick"`
	Report     any    `json:"report"`
}

// bestOf is the one timer: it returns the fastest timed run of f — the usual
// antidote to scheduler noise on shared machines — and is the one place that
// decides how many runs that takes: three, or a single one under -quick.
func bestOf(quick bool, f func()) float64 {
	reps := 3
	if quick {
		reps = 1
	}
	best := math.Inf(1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		f()
		best = min(best, time.Since(start).Seconds())
	}
	return best
}

// publish is the one place the command writes an output file.
func publish(dir, name string, data []byte) error {
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// writeJSONL publishes a JSONL side artifact as dir/name after passing it
// through its validator, so a schema break fails the producing suite, not
// just the downstream ml4db-tracecheck.
func writeJSONL(dir, name string, write func(io.Writer) error, validate func(io.Reader) (int, error)) error {
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return err
	}
	if _, err := validate(bytes.NewReader(buf.Bytes())); err != nil {
		return fmt.Errorf("%s: emitted invalid JSONL: %v", name, err)
	}
	return publish(dir, name, buf.Bytes())
}

func suiteNames() string {
	names := make([]string, len(suites))
	for i, s := range suites {
		names[i] = s.name
	}
	return strings.Join(names, ",")
}

// selectSuites resolves a -suite argument against the table.
func selectSuites(arg string) ([]suite, error) {
	if arg == "all" {
		return suites, nil
	}
	var picked []suite
	for _, name := range strings.Split(arg, ",") {
		i := slices.IndexFunc(suites, func(s suite) bool { return s.name == strings.TrimSpace(name) })
		if i < 0 {
			return nil, fmt.Errorf("unknown suite %q (valid: all,%s)", name, suiteNames())
		}
		picked = append(picked, suites[i])
	}
	return picked, nil
}

// runSuites runs each picked suite and publishes its report under the
// envelope; it returns how many failed.
func runSuites(picked []suite, seed uint64, quick bool, dir string, stderr io.Writer) int {
	failures := 0
	for _, s := range picked {
		fmt.Printf("==> suite %s\n", s.name)
		start := time.Now()
		report, err := s.run(seed, quick, dir)
		if err == nil && report != nil {
			err = writeEnvelope(dir, envelope{
				Suite: s.name, GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
				GoVersion: runtime.Version(), Seed: seed, Quick: quick, Report: report,
			})
		}
		if err != nil {
			fmt.Fprintf(stderr, "ml4db-bench: %v\n", err)
			failures++
			continue
		}
		fmt.Printf("suite %s ok (gomaxprocs=%d, %.1fs)\n", s.name, runtime.GOMAXPROCS(0), time.Since(start).Seconds())
	}
	return failures
}

func writeEnvelope(dir string, env envelope) error {
	data, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		return err
	}
	return publish(dir, "BENCH_"+env.Suite+".json", append(data, '\n'))
}

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// run is main with its arguments and error stream injected; it returns the
// exit code (2 for a usage error, 1 for a failed suite or experiment).
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("ml4db-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 42, "random seed for all experiments and suites")
	runIDs := fs.String("run", "", "comma-separated experiment IDs to run (default: all)")
	list := fs.Bool("list", false, "list experiment IDs and exit")
	suiteArg := fs.String("suite", "", "run bench suites instead of experiments: all, or a comma-separated subset of "+suiteNames())
	quick := fs.Bool("quick", false, "with -suite: CI-sized scenarios and single timed runs")
	outDir := fs.String("out-dir", ".", "with -suite: directory for BENCH_<suite>.json and the JSONL artifacts")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *suiteArg != "" {
		picked, err := selectSuites(*suiteArg)
		if err != nil {
			fmt.Fprintf(stderr, "ml4db-bench: %v\n", err)
			return 2
		}
		if failures := runSuites(picked, *seed, *quick, *outDir, stderr); failures > 0 {
			fmt.Fprintf(stderr, "ml4db-bench: %d suite(s) failed\n", failures)
			return 1
		}
		return 0
	}

	if *list {
		for _, r := range experiments.All() {
			fmt.Println(r.ID)
		}
		return 0
	}

	var runners []experiments.Runner
	if *runIDs == "" {
		runners = experiments.All()
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			r, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(stderr, "ml4db-bench: unknown experiment %q\n", id)
				return 2
			}
			runners = append(runners, r)
		}
	}

	failures := 0
	for _, r := range runners {
		start := time.Now()
		rep, err := r.Run(*seed)
		if err != nil {
			fmt.Fprintf(stderr, "ml4db-bench: %s failed: %v\n", r.ID, err)
			failures++
			continue
		}
		fmt.Print(rep.String())
		fmt.Printf("  (%.1fs)\n\n", time.Since(start).Seconds())
		if !rep.Holds {
			failures++
		}
	}
	if failures > 0 {
		fmt.Fprintf(stderr, "ml4db-bench: %d experiment(s) did not reproduce the claimed direction\n", failures)
		return 1
	}
	fmt.Println("all experiments reproduce the paper's claimed directions")
	return 0
}
