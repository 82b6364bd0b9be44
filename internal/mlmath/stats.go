package mlmath

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of v, or 0 for an empty slice.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Variance returns the population variance of v.
func Variance(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	m := Mean(v)
	s := 0.0
	for _, x := range v {
		d := x - m
		s += d * d
	}
	return s / float64(len(v))
}

// StdDev returns the population standard deviation.
func StdDev(v []float64) float64 { return math.Sqrt(Variance(v)) }

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of v using linear
// interpolation between order statistics. v is not modified.
func Quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := Clone(v)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Median returns the 0.5-quantile of v.
func Median(v []float64) float64 { return Quantile(v, 0.5) }

// QError is the standard cardinality-estimation quality metric:
// max(est/truth, truth/est), with both sides clamped below at 1 to avoid
// division blowups on empty results. A perfect estimate scores 1.
func QError(est, truth float64) float64 {
	if est < 1 {
		est = 1
	}
	if truth < 1 {
		truth = 1
	}
	if est > truth {
		return est / truth
	}
	return truth / est
}

// Summary describes a sample distribution for experiment reports.
type Summary struct {
	N                int
	Mean, Median     float64
	P90, P95, P99    float64
	Min, Max, StdDev float64
}

// Summarize computes a Summary of v.
func Summarize(v []float64) Summary {
	if len(v) == 0 {
		return Summary{}
	}
	s := Clone(v)
	sort.Float64s(s)
	return Summary{
		N:      len(s),
		Mean:   Mean(s),
		Median: Quantile(s, 0.5),
		P90:    Quantile(s, 0.90),
		P95:    Quantile(s, 0.95),
		P99:    Quantile(s, 0.99),
		Min:    s[0],
		Max:    s[len(s)-1],
		StdDev: StdDev(s),
	}
}
