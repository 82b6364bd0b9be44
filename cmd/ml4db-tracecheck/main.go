// Command ml4db-tracecheck validates telemetry JSONL artifacts against the
// record schemas their writers are derived from. Each file is dispatched on
// its first record's type: span traces and metric snapshots (internal/obs),
// querystore exports (a schema-1 header whose section counts must match the
// statement, heat, window, drift and model records that follow) and
// autopilot tuning ledgers. Every line must carry its type's full field set;
// an empty file is an error. It exits 1 at the first invalid or unreadable
// file and 2 when no file is given.
//
// Usage:
//
//	ml4db-tracecheck FILE...
package main

import (
	"fmt"
	"io"
	"os"

	"ml4db/internal/autopilot"
	"ml4db/internal/obs"
	"ml4db/internal/querystore"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments and output streams injected; it returns the
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "usage: ml4db-tracecheck FILE...")
		return 2
	}
	for _, path := range args {
		kind, n, err := validateFile(path)
		if err != nil {
			fmt.Fprintf(stderr, "ml4db-tracecheck: %s: %v\n", path, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s: %d valid %s lines\n", path, n, kind)
	}
	return 0
}

func validateFile(path string) (kind string, n int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	return obs.ValidateJSONL(f, obs.TraceFormat, obs.MetricsFormat, querystore.ExportFormat, autopilot.LedgerFormat)
}
