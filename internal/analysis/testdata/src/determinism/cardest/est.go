// Package cardest is a determinism fixture: its import path ends in a core
// model package name, so every ambient-nondeterminism idiom here must fire.
package cardest

import (
	"math/rand" // want "import of math/rand"
	"sort"
	"time"
)

// Train mirrors a model training entry point that leaks ambient state.
func Train(data map[string]float64) []string {
	var keys []string
	for k := range data {
		keys = append(keys, k) // want "nondeterministic"
	}
	start := time.Now()   // want "time.Now"
	_ = time.Since(start) // want "time.Since"
	_ = time.Until(start) // want "time.Until"
	_ = rand.Float64()

	// Ad-hoc fan-out: scheduling order races, so the reduction order is
	// nondeterministic. Only mlmath.Pool may spawn.
	done := make(chan struct{})
	go func() { close(done) }() // want "goroutine"
	<-done

	// Sorted afterwards in the same function: well-defined order, no finding.
	var sortedKeys []string
	for k := range data {
		sortedKeys = append(sortedKeys, k)
	}
	sort.Strings(sortedKeys)
	return append(keys, sortedKeys...)
}
