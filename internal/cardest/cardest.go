package cardest

import (
	"fmt"
	"math"

	"ml4db/internal/mlmath"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/expr"
)

// Featurizer maps conjunctive range predicates over chosen columns to a
// fixed vector: (lo, hi) per column normalized to [0, 1], with (0, 1) for
// unconstrained columns.
type Featurizer struct {
	Table *catalog.Table
	Cols  []int
	lo    []int64
	hi    []int64
}

// NewFeaturizer builds a featurizer over the table's given columns (stats
// must be analyzed).
func NewFeaturizer(t *catalog.Table, cols []int) (*Featurizer, error) {
	f := &Featurizer{Table: t, Cols: cols}
	for _, c := range cols {
		st := t.Columns[c].Stats
		if st == nil || st.Count == 0 {
			return nil, fmt.Errorf("cardest: column %d of %s not analyzed", c, t.Name)
		}
		f.lo = append(f.lo, st.Min)
		f.hi = append(f.hi, st.Max)
	}
	return f, nil
}

// Dim returns the feature width (2 per column).
func (f *Featurizer) Dim() int { return 2 * len(f.Cols) }

// Features encodes the predicates (conjunctive, on f's columns) into the
// normalized range vector.
func (f *Featurizer) Features(preds []expr.Pred) []float64 {
	return f.encode(make([]float64, f.Dim()), preds)
}

// encode is Features writing into out, which is Dim long, and returning it.
func (f *Featurizer) encode(out []float64, preds []expr.Pred) []float64 {
	for i := range f.Cols {
		out[2*i] = 0
		out[2*i+1] = 1
	}
	for _, p := range preds {
		for i, c := range f.Cols {
			if p.Col != c {
				continue
			}
			lo, hi, ok := p.Range(f.lo[i], f.hi[i])
			if !ok {
				continue
			}
			span := float64(f.hi[i]-f.lo[i]) + 1
			nl := mlmath.Clamp(float64(lo-f.lo[i])/span, 0, 1)
			nh := mlmath.Clamp(float64(hi-f.lo[i]+1)/span, 0, 1)
			// Intersect with any previous predicate on the same column.
			if nl > out[2*i] {
				out[2*i] = nl
			}
			if nh < out[2*i+1] {
				out[2*i+1] = nh
			}
		}
	}
	return out
}

// TrueFraction computes the exact selectivity of the predicates by scanning
// the table — the label generator for learned estimators.
func TrueFraction(t *catalog.Table, preds []expr.Pred) float64 {
	n := t.NumRows()
	if n == 0 {
		return 0
	}
	match := 0
	for r := 0; r < n; r++ {
		ok := true
		for _, p := range preds {
			if !p.Eval(t.Data[p.Col][r]) {
				ok = false
				break
			}
		}
		if ok {
			match++
		}
	}
	return float64(match) / float64(n)
}

// Estimator predicts the selectivity of conjunctive predicates.
type Estimator interface {
	Name() string
	// EstimateFraction returns the predicted fraction of rows satisfying
	// the predicates.
	EstimateFraction(preds []expr.Pred) float64
	// SizeBytes reports the model footprint.
	SizeBytes() int
}

// BatchEstimator is implemented by estimators with a parallel batched
// inference path (e.g. MLPEstimator over an mlmath.Pool). The batch result
// must equal the serial per-query loop exactly.
type BatchEstimator interface {
	Estimator
	EstimateFractionBatch(queries [][]expr.Pred) []float64
}

// EstimateAll estimates every predicate set, through the batched path when
// the estimator provides one and a serial loop otherwise. Evaluation
// harnesses should call this instead of looping over EstimateFraction so
// batched estimators are exercised end to end.
func EstimateAll(e Estimator, queries [][]expr.Pred) []float64 {
	if be, ok := e.(BatchEstimator); ok {
		return be.EstimateFractionBatch(queries)
	}
	out := make([]float64, len(queries))
	for i, q := range queries {
		out[i] = e.EstimateFraction(q)
	}
	return out
}

// HistEstimator is the classical baseline: per-column histogram
// selectivities multiplied under the independence assumption.
type HistEstimator struct {
	Table *catalog.Table
}

// Name implements Estimator.
func (h *HistEstimator) Name() string { return "histogram" }

// SizeBytes implements Estimator (the analyzed histograms).
func (h *HistEstimator) SizeBytes() int {
	s := 0
	for _, c := range h.Table.Columns {
		if c.Stats != nil && c.Stats.Hist != nil {
			s += len(c.Stats.Hist.Bounds) * 24
		}
	}
	return s
}

// EstimateFraction implements Estimator.
func (h *HistEstimator) EstimateFraction(preds []expr.Pred) float64 {
	sel := 1.0
	for _, p := range preds {
		st := h.Table.Columns[p.Col].Stats
		if st == nil || st.Count == 0 {
			sel *= 0.1
			continue
		}
		switch p.Op {
		case expr.EQ:
			sel *= st.SelectivityEq(p.Lo)
		case expr.NE:
			sel *= 1 - st.SelectivityEq(p.Lo)
		default:
			lo, hi, ok := p.Range(st.Min, st.Max)
			if !ok {
				sel *= 0.1
				continue
			}
			sel *= st.SelectivityRange(lo, hi)
		}
	}
	return sel
}

// SampleEstimator evaluates predicates on a stored row sample, preserving
// cross-column correlation at the cost of storing and scanning rows.
type SampleEstimator struct {
	cols [][]int64 // sampled rows, column-major over all table columns
	n    int
}

// NewSampleEstimator takes a deterministic systematic sample of sampleSize
// rows.
func NewSampleEstimator(t *catalog.Table, sampleSize int) *SampleEstimator {
	n := t.NumRows()
	if sampleSize > n {
		sampleSize = n
	}
	s := &SampleEstimator{cols: make([][]int64, t.NumCols())}
	if sampleSize == 0 {
		return s
	}
	step := n / sampleSize
	if step == 0 {
		step = 1
	}
	for r := 0; r < n && s.n < sampleSize; r += step {
		for c := 0; c < t.NumCols(); c++ {
			s.cols[c] = append(s.cols[c], t.Data[c][r])
		}
		s.n++
	}
	return s
}

// Name implements Estimator.
func (s *SampleEstimator) Name() string { return "sample" }

// SizeBytes implements Estimator.
func (s *SampleEstimator) SizeBytes() int { return s.n * len(s.cols) * 8 }

// EstimateFraction implements Estimator.
func (s *SampleEstimator) EstimateFraction(preds []expr.Pred) float64 {
	if s.n == 0 {
		return 0
	}
	match := 0
	for r := 0; r < s.n; r++ {
		ok := true
		for _, p := range preds {
			if !p.Eval(s.cols[p.Col][r]) {
				ok = false
				break
			}
		}
		if ok {
			match++
		}
	}
	return float64(match) / float64(s.n)
}

// logitSel maps a selectivity into an unconstrained regression target and
// back, stabilizing training on tiny fractions.
func logitSel(f float64) float64 {
	f = mlmath.Clamp(f, 1e-6, 1-1e-6)
	return math.Log(f / (1 - f))
}

func invLogit(x float64) float64 { return mlmath.Sigmoid(x) }
