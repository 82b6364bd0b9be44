// Command ml4db-tracecheck validates telemetry JSONL artifacts against the
// record schemas their writers are derived from. Each file is dispatched on
// its first record's type: span traces and metric snapshots (internal/obs),
// querystore exports (a schema-1 header whose section counts must match the
// statement, heat, window, drift and model records that follow) and
// autopilot tuning ledgers. Every line must carry its type's full field set;
// an empty file is an error. The check.sh smoke gate runs it over freshly
// emitted files so schema drift fails CI rather than silently breaking
// downstream consumers.
//
// Usage:
//
//	ml4db-tracecheck FILE...
package main

import (
	"fmt"
	"os"

	"ml4db/internal/autopilot"
	"ml4db/internal/obs"
	"ml4db/internal/querystore"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: ml4db-tracecheck FILE...")
		os.Exit(2)
	}
	for _, path := range os.Args[1:] {
		kind, n, err := validateFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ml4db-tracecheck: %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Printf("%s: %d valid %s lines\n", path, n, kind)
	}
}

func validateFile(path string) (kind string, n int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	return obs.ValidateJSONL(f, obs.TraceFormat, obs.MetricsFormat, querystore.ExportFormat, autopilot.LedgerFormat)
}
