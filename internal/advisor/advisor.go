package advisor

import (
	"fmt"
	"math"

	"ml4db/internal/mlmath"
	"ml4db/internal/qo"
	"ml4db/internal/qo/paramtree"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/exec"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/optimizer"
	"ml4db/internal/sqlkit/plan"
)

// Candidate is a potential secondary index.
type Candidate struct {
	TableID int
	Col     int
}

// String renders the candidate.
func (c Candidate) String() string { return fmt.Sprintf("idx(t%d.c%d)", c.TableID, c.Col) }

// EnumerateCandidates lists (table, column) pairs that appear in equality or
// interval predicates of the workload — the columns a secondary index could
// serve. Disequalities never produce a candidate. Iteration goes by table
// position rather than map order, so the list is deterministic:
// first-appearance order over (workload order, table position, filter
// order). Rankings that tie-break on position, and replay-exact tuning loops
// built on top, depend on that.
func EnumerateCandidates(cat *catalog.Catalog, workload []*plan.Query) []Candidate {
	seen := map[Candidate]bool{}
	var out []Candidate
	for _, q := range workload {
		for pos := range q.Tables {
			tid := q.Tables[pos]
			for _, p := range q.Filters[pos] {
				if !Indexable(p) {
					continue
				}
				c := Candidate{TableID: tid, Col: p.Col}
				if !seen[c] {
					seen[c] = true
					out = append(out, c)
				}
			}
		}
	}
	return out
}

// Indexable reports whether a secondary index on p's column could serve p:
// equality probes (a point interval) and interval predicates qualify,
// disequalities do not.
func Indexable(p expr.Pred) bool {
	if p.Op == expr.EQ {
		return true
	}
	_, _, ok := p.Range(0, 1)
	return ok
}

// Advisor evaluates and recommends index configurations.
type Advisor struct {
	Env *qo.Env
	// Hardware defines the measured latency (dot of its params with the
	// executed counters) — the ground truth the what-if estimates miss.
	Hardware paramtree.Hardware
}

// New returns an advisor over the environment and hardware model.
func New(env *qo.Env, hw paramtree.Hardware) *Advisor {
	return &Advisor{Env: env, Hardware: hw}
}

// workloadLatency plans and "executes" the workload under the current index
// configuration and returns the total hardware latency.
func (a *Advisor) workloadLatency(workload []*plan.Query) (float64, error) {
	total := 0.0
	for _, q := range workload {
		p, err := a.Env.Opt.Plan(q, optimizer.NoHint())
		if err != nil {
			return 0, err
		}
		res, err := a.Env.Exec.Execute(p, exec.Options{Output: exec.CountOnly})
		if err != nil {
			return 0, err
		}
		total += a.Hardware.Latency(res.Counters)
	}
	return total, nil
}

// withIndex runs f with the candidate's index temporarily built.
func (a *Advisor) withIndex(c Candidate, f func() error) error {
	t := a.Env.Cat.Table(c.TableID)
	t.AddIndex(catalog.BuildSecondaryIndex(t, c.Col))
	defer t.DropIndex(c.Col)
	return f()
}

// WhatIfBenefit returns the optimizer-estimated workload cost saving of
// building the candidate — the classical advisor's signal, computed without
// executing anything.
func (a *Advisor) WhatIfBenefit(c Candidate, workload []*plan.Query) (float64, error) {
	base := 0.0
	for _, q := range workload {
		p, err := a.Env.Opt.Plan(q, optimizer.NoHint())
		if err != nil {
			return 0, err
		}
		base += p.EstCost
	}
	with := 0.0
	err := a.withIndex(c, func() error {
		for _, q := range workload {
			p, err := a.Env.Opt.Plan(q, optimizer.NoHint())
			if err != nil {
				return err
			}
			with += p.EstCost
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return base - with, nil
}

// MeasuredBenefit executes the workload with and without the candidate and
// returns the true latency saving — expensive ground truth.
func (a *Advisor) MeasuredBenefit(c Candidate, workload []*plan.Query) (float64, error) {
	base, err := a.workloadLatency(workload)
	if err != nil {
		return 0, err
	}
	var with float64
	err = a.withIndex(c, func() error {
		var inner error
		with, inner = a.workloadLatency(workload)
		return inner
	})
	if err != nil {
		return 0, err
	}
	return base - with, nil
}

// features builds the learned model's input for a candidate: bias, what-if
// benefit (log-signed), estimated fetch volume, predicate frequency, and
// table size.
func (a *Advisor) features(c Candidate, whatIf float64, workload []*plan.Query) []float64 {
	t := a.Env.Cat.Table(c.TableID)
	freq := 0.0
	estFetch := 0.0
	for _, q := range workload {
		for pos, preds := range q.Filters {
			if q.Tables[pos] != c.TableID {
				continue
			}
			for _, p := range preds {
				if p.Col != c.Col {
					continue
				}
				st := t.Columns[p.Col].Stats
				if st == nil {
					continue
				}
				if lo, hi, ok := p.Range(st.Min, st.Max); ok {
					freq++
					estFetch += float64(t.NumRows()) * st.SelectivityRange(lo, hi)
				}
			}
		}
	}
	return []float64{
		1,
		signedLog(whatIf),
		math.Log(estFetch + 1),
		freq / float64(len(workload)),
		math.Log(float64(t.NumRows()) + 1),
	}
}

func signedLog(x float64) float64 {
	if x >= 0 {
		return math.Log(x + 1)
	}
	return -math.Log(-x + 1)
}

// Learned is the execution-feedback-corrected benefit model: measured
// benefits are remembered exactly for the configurations that were executed,
// and a regression over candidate features extrapolates to the rest.
type Learned struct {
	w        []float64
	measured map[Candidate]float64 // signed-log benefit of executed candidates
}

// Train fits the correction model: for each training candidate, the what-if
// estimate and candidate features map to the measured benefit (signed log).
// This is the "leverage query executions" step of AIMeetsAI.
func (a *Advisor) Train(train []Candidate, workload []*plan.Query) (*Learned, error) {
	if len(train) == 0 {
		return nil, fmt.Errorf("advisor: no training candidates")
	}
	x := mlmath.NewMat(len(train), 5)
	y := make([]float64, len(train))
	mem := make(map[Candidate]float64, len(train))
	for i, c := range train {
		wi, err := a.WhatIfBenefit(c, workload)
		if err != nil {
			return nil, err
		}
		measured, err := a.MeasuredBenefit(c, workload)
		if err != nil {
			return nil, err
		}
		copy(x.Row(i), a.features(c, wi, workload))
		y[i] = signedLog(measured)
		mem[c] = y[i]
	}
	w, err := mlmath.RidgeRegression(x, y, 1e-2)
	if err != nil {
		return nil, fmt.Errorf("advisor: %w", err)
	}
	return &Learned{w: w, measured: mem}, nil
}

// PredictBenefit returns the corrected benefit prediction (signed log
// scale): the remembered measurement for executed candidates, the regression
// extrapolation otherwise.
func (a *Advisor) PredictBenefit(m *Learned, c Candidate, workload []*plan.Query) (float64, error) {
	if v, ok := m.measured[c]; ok {
		return v, nil
	}
	wi, err := a.WhatIfBenefit(c, workload)
	if err != nil {
		return 0, err
	}
	return mlmath.Dot(m.w, a.features(c, wi, workload)), nil
}

// RankWhatIf orders candidates by descending what-if benefit.
func (a *Advisor) RankWhatIf(cands []Candidate, workload []*plan.Query) ([]Candidate, error) {
	return a.rankBy(cands, func(c Candidate) (float64, error) {
		return a.WhatIfBenefit(c, workload)
	})
}

// RankLearned orders candidates by descending corrected benefit.
func (a *Advisor) RankLearned(m *Learned, cands []Candidate, workload []*plan.Query) ([]Candidate, error) {
	return a.rankBy(cands, func(c Candidate) (float64, error) {
		return a.PredictBenefit(m, c, workload)
	})
}

func (a *Advisor) rankBy(cands []Candidate, score func(Candidate) (float64, error)) ([]Candidate, error) {
	type scored struct {
		c Candidate
		s float64
	}
	ss := make([]scored, len(cands))
	for i, c := range cands {
		v, err := score(c)
		if err != nil {
			return nil, err
		}
		ss[i] = scored{c, v}
	}
	for i := 1; i < len(ss); i++ { // insertion sort: candidate sets are small
		for j := i; j > 0 && ss[j].s > ss[j-1].s; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
	out := make([]Candidate, len(ss))
	for i, e := range ss {
		out[i] = e.c
	}
	return out, nil
}

// EvaluateConfig builds the given indexes, measures workload latency, and
// drops them again.
func (a *Advisor) EvaluateConfig(cands []Candidate, workload []*plan.Query) (float64, error) {
	for _, c := range cands {
		t := a.Env.Cat.Table(c.TableID)
		t.AddIndex(catalog.BuildSecondaryIndex(t, c.Col))
	}
	defer func() {
		for _, c := range cands {
			a.Env.Cat.Table(c.TableID).DropIndex(c.Col)
		}
	}()
	return a.workloadLatency(workload)
}
