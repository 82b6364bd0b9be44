// Package helper is non-core code that reads the ambient clock and global
// RNG. Core packages must not reach these reads through it.
package helper

import (
	"math/rand"
	"time"
)

// Stamp reads the ambient clock.
func Stamp() int64 { return time.Now().UnixNano() }

// Jitter draws from the global RNG.
func Jitter() float64 { return rand.Float64() }

// Elapsed reads the clock via time.Since.
func Elapsed(t0 time.Time) time.Duration { return time.Since(t0) }

// Remaining reads the clock via time.Until (t.Sub(time.Now())).
func Remaining(deadline time.Time) time.Duration { return time.Until(deadline) }

// Add is pure.
func Add(a, b int) int { return a + b }

// Scaled uses a caller-seeded source: *rand.Rand methods are fine.
func Scaled(r *rand.Rand, max float64) float64 { return r.Float64() * max }
