// Package ml4db's top-level benchmark regenerates every table and figure of
// the reproduction: one sub-benchmark per registered experiment (DESIGN.md
// lists them; `ml4db-bench -list` prints the IDs). Each runs the full
// experiment per iteration (expect seconds per op — the default b.N of 1 is
// the intended usage), reports the experiment's headline metrics via
// b.ReportMetric, logs the regenerated rows, and fails if the paper's claimed
// direction does not hold.
//
// Regenerate everything:
//
//	go test -bench=. -benchmem
//
// Regenerate one artifact:
//
//	go test -bench 'Experiment/E9$'
package ml4db

import (
	"testing"

	"ml4db/internal/experiments"
)

// benchSeed keeps the bench artifacts reproducible run to run.
const benchSeed = 42

func BenchmarkExperiment(b *testing.B) {
	for _, r := range experiments.All() {
		b.Run(r.ID, func(b *testing.B) {
			var rep *experiments.Report
			var err error
			for i := 0; i < b.N; i++ {
				if rep, err = r.Run(benchSeed); err != nil {
					b.Fatalf("%s: %v", r.ID, err)
				}
			}
			b.StopTimer()
			b.Log("\n" + rep.String())
			for k, v := range rep.Metrics {
				b.ReportMetric(v, k)
			}
			if !rep.Holds {
				b.Fatalf("%s: claimed direction did not hold", r.ID)
			}
		})
	}
}
