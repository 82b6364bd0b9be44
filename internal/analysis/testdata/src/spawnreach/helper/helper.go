// Package helper is non-core utility code. It may spawn goroutines itself —
// but core packages must not reach the spawn through it.
package helper

// FanOut runs fns concurrently: the go statement determinism reports
// transitively.
func FanOut(fns []func()) {
	done := make(chan struct{})
	for _, f := range fns {
		f := f
		go func() {
			f()
			done <- struct{}{}
		}()
	}
	for range fns {
		<-done
	}
}

// Indirect adds a hop between a caller and the spawn.
func Indirect(fns []func()) { FanOut(fns) }

// Sum spawns nothing.
func Sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}
