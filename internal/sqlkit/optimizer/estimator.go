package optimizer

import (
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/plan"
)

// HistEstimator is the classical histogram-based cardinality estimator with
// per-predicate independence and the System-R join selectivity formula
// 1/max(V(L.a), V(R.b)). Its systematic errors on correlated data are the
// weakness the learned estimators of §3.3 target.
type HistEstimator struct {
	Cat *catalog.Catalog
}

var _ CardEstimator = (*HistEstimator)(nil)

// ScanRows implements CardEstimator.
func (h *HistEstimator) ScanRows(q *plan.Query, pos int) float64 {
	t := h.Cat.Table(q.Tables[pos])
	rows := float64(t.NumRows())
	sel := 1.0
	for _, f := range q.Filters[pos] {
		sel *= h.predSelectivity(t, f)
	}
	est := rows * sel
	if est < 1 {
		est = 1
	}
	return est
}

func (h *HistEstimator) predSelectivity(t *catalog.Table, f expr.Pred) float64 {
	st := t.Columns[f.Col].Stats
	if st == nil || st.Count == 0 {
		return 0.1 // PostgreSQL-style default guess
	}
	switch f.Op {
	case expr.EQ:
		return st.SelectivityEq(f.Lo)
	case expr.NE:
		return 1 - st.SelectivityEq(f.Lo)
	default:
		lo, hi, ok := f.Range(st.Min, st.Max)
		if !ok {
			return 0.1
		}
		return st.SelectivityRange(lo, hi)
	}
}

// JoinSelectivity implements CardEstimator with the System-R formula.
func (h *HistEstimator) JoinSelectivity(q *plan.Query, cond expr.JoinCond) float64 {
	lt := h.Cat.Table(q.Tables[cond.LeftTable])
	rt := h.Cat.Table(q.Tables[cond.RightTable])
	vl, vr := 1.0, 1.0
	if st := lt.Columns[cond.LeftCol].Stats; st != nil && st.Distinct > 0 {
		vl = float64(st.Distinct)
	}
	if st := rt.Columns[cond.RightCol].Stats; st != nil && st.Distinct > 0 {
		vr = float64(st.Distinct)
	}
	v := vl
	if vr > v {
		v = vr
	}
	return 1 / v
}

// Estimates is what an estimator says about one statement: the whole of what
// planning it reads. Every entry was asked for exactly once (see Estimate).
type Estimates struct {
	Rows []float64 // Rows[pos] is ScanRows(q, pos)
	Sel  []float64 // Sel[i] is JoinSelectivity(q, q.Joins[i]), the condition as declared
}

// Estimate asks est everything planning q needs, each question once: the
// scanned rows of every table position, then the selectivity of every join
// condition, both in declaration order. q must pass CheckJoins — an estimator
// may index the query by a condition's positions. accept, when non-nil, sees
// each answer as it arrives; the first one it refuses ends the asking, and
// Estimate reports ok false with no table.
func Estimate(est CardEstimator, q *plan.Query, accept func(float64) bool) (e Estimates, ok bool) {
	n := len(q.Tables)
	vals := make([]float64, n+len(q.Joins))
	for i := range vals {
		if i < n {
			vals[i] = est.ScanRows(q, i)
		} else {
			vals[i] = est.JoinSelectivity(q, q.Joins[i-n])
		}
		if accept != nil && !accept(vals[i]) {
			return Estimates{}, false
		}
	}
	return Estimates{Rows: vals[:n], Sel: vals[n:]}, true
}

// SubtreeRows estimates the output cardinality of joining q's table positions
// in set, under the independence assumption: the product of scan estimates
// times the product of the selectivities of all join conditions internal to
// the set.
func (e Estimates) SubtreeRows(q *plan.Query, set []int) float64 {
	in := make(map[int]bool, len(set))
	for _, p := range set {
		in[p] = true
	}
	rows := 1.0
	for _, p := range set {
		rows *= e.Rows[p]
	}
	for i, c := range q.Joins {
		if in[c.LeftTable] && in[c.RightTable] {
			rows *= e.Sel[i]
		}
	}
	if rows < 1 {
		rows = 1
	}
	return rows
}
