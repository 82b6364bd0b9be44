package plan

import "testing"

// TestWorkUnits pins the two shared work-unit formulas at small n, where
// ceil/floor off-by-ones between cost model and executor used to hide:
// ProbeSteps is floor(log2 n) + 1 (minimum 1), SortUnits is m·floor(log2 m)
// (m itself for m ≤ 1) and keeps a fractional estimate's multiplier.
func TestWorkUnits(t *testing.T) {
	for n, want := range map[int]int64{0: 1, 1: 1, 2: 2, 3: 2, 4: 3, 7: 3, 8: 4, 1023: 10, 1024: 11} {
		if got := ProbeSteps(n); got != want {
			t.Errorf("ProbeSteps(%d) = %d, want %d", n, got, want)
		}
	}
	for m, want := range map[int]int{0: 0, 1: 1, 2: 2, 3: 3, 4: 8, 7: 14, 8: 24, 16: 64} {
		if got := SortUnits(m); got != want {
			t.Errorf("SortUnits(%d) = %d, want %d", m, got, want)
		}
		if got := SortUnits(float64(m)); got != float64(want) {
			t.Errorf("SortUnits(%d.0) = %v, want %d", m, got, want)
		}
	}
	for m, want := range map[float64]float64{0.5: 0.5, 2.5: 2.5, 7.5: 15} {
		if got := SortUnits(m); got != want {
			t.Errorf("SortUnits(%v) = %v, want %v", m, got, want)
		}
	}
}
