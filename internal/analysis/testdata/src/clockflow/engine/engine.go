// Package engine is a core-named fixture package: determinism must flag its
// calls into clock- or RNG-reading non-core helpers at the boundary edge.
package engine

import (
	"math/rand" // want "import of math/rand"
	"time"

	"ml4db/internal/analysis/testdata/src/clockflow/helper"
	"ml4db/internal/analysis/testdata/src/clockflow/mlmath"
)

func Timestamp() int64 {
	return helper.Stamp() // want "ambient clock or global RNG"
}

func Noise() float64 {
	return helper.Jitter() // want "ambient clock or global RNG"
}

func Took(t0 time.Time) time.Duration {
	return helper.Elapsed(t0) // want "ambient clock or global RNG"
}

func Left(deadline time.Time) time.Duration {
	return helper.Remaining(deadline) // want "ambient clock or global RNG"
}

func AddOnly(a, b int) int {
	return helper.Add(a, b)
}

// Injected reads time only through the sanctioned mlmath.Clock path.
func Injected(c mlmath.Clock) int64 {
	return mlmath.ClockOrSystem(c).Now().UnixNano()
}

// Seeded randomness through an explicit source is deterministic under replay.
func Seeded(seed int64) float64 {
	r := rand.New(rand.NewSource(seed))
	return helper.Scaled(r, 2.0)
}

func Suppressed() int64 {
	//ml4db:allow determinism "fixture: wall-clock read reviewed for suppression coverage"
	return helper.Stamp()
}
