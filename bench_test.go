// Package ml4db's top-level benchmark regenerates every table and figure of
// the reproduction: one sub-benchmark per registered experiment (DESIGN.md
// lists the IDs). Each sub-benchmark reports the experiment's headline
// metrics via b.ReportMetric, logs the regenerated rows, and fails if the
// paper's claimed direction does not hold. Pass -benchtime 1x: each iteration
// runs the whole experiment, and without it the testing package raises b.N
// until the benchmark takes a second, rerunning a cheap experiment hundreds
// of thousands of times. Pass -v: without it the log of rows is cut after
// ten lines.
//
// Regenerate everything:
//
//	go test -run '^$' -bench . -benchtime 1x -v
//
// Regenerate one artifact:
//
//	go test -run '^$' -bench 'Experiment/E9$' -benchtime 1x -v
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
