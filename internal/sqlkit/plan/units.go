package plan

// Work-unit formulas shared by the executor (which charges them) and the
// optimizer (which costs them), so that "the true cost parameters reproduce
// the actual work" cannot drift between two hand-written copies.

// ProbeSteps returns the number of probes a binary search makes over n
// items: floor(log2 n) + 1, minimum 1. The executor charges it as IndexProbe
// work per index probe.
func ProbeSteps(n int) int64 {
	c := int64(1)
	for v := n; v > 1; v >>= 1 {
		c++
	}
	return c
}

// SortUnits returns the sort work for m tuples: m·floor(log2 m) for m > 1,
// m itself otherwise. The executor charges it as MergeSort work on integer
// input sizes; the optimizer costs fractional row estimates with the integer
// log of their floor and the fractional multiplier.
func SortUnits[T int | float64](m T) T {
	if m <= 1 {
		return m
	}
	return m * T(ProbeSteps(int(m))-1)
}
