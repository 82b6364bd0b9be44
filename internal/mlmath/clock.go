package mlmath

import "time"

// Clock abstracts wall-clock reads so components that record timings (for
// model-efficiency metrics like TrainSeconds) stay deterministic under test
// and replay: inject a ManualClock and the recorded timings — and anything
// derived from them, like retraining decisions — reproduce exactly.
type Clock interface {
	Now() time.Time
}

// SystemClock reads the real wall clock. It is the production default and
// the single sanctioned time.Now call site in the core model packages.
type SystemClock struct{}

// Now implements Clock.
func (SystemClock) Now() time.Time {
	return time.Now()
}

// ManualClock is a Clock advanced explicitly by the test or replay harness.
// The zero value starts at the zero time.
type ManualClock struct {
	T time.Time
}

// Now implements Clock.
func (c *ManualClock) Now() time.Time { return c.T }

// Advance moves the clock forward by d.
func (c *ManualClock) Advance(d time.Duration) { c.T = c.T.Add(d) }

// TickClock advances itself by a fixed Step on every Now read, giving
// deterministic *nonzero* timings — the clock to inject when a golden test
// wants rendered durations that are stable yet not all zero.
type TickClock struct {
	T    time.Time
	Step time.Duration
}

// Now implements Clock, returning the current time and stepping the clock.
func (c *TickClock) Now() time.Time {
	t := c.T
	c.T = c.T.Add(c.Step)
	return t
}

// ClockOrSystem returns c, or SystemClock when c is nil — the idiom for
// optional Clock fields on model structs.
func ClockOrSystem(c Clock) Clock {
	if c == nil {
		return SystemClock{}
	}
	return c
}
