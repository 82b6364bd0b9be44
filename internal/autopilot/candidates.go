package autopilot

import (
	"fmt"
	"math"
	"time"

	"ml4db/internal/advisor"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/optimizer"
	"ml4db/internal/sqlkit/plan"
	"ml4db/internal/views"
)

// proposal is a costed candidate awaiting the gate.
type proposal struct {
	kind     Kind
	target   string
	tableID  int // indexed table (index) or -1 (view, unbuilt)
	col      int // indexed column, or -1 for views
	viewCand views.Candidate

	estBase   float64
	estWith   float64
	buildCost float64
	netWin    float64
	sizeBytes int64
	// affected indexes into the mined workload: statements whose estimated
	// cost strictly improved — the shadow trial watches exactly these.
	affected []int
}

// workloadCost plans every mined statement — rewritten through the adopted
// views and, when non-nil, the extra hypothetical view — and returns the
// call-weighted total estimated cost plus the per-statement breakdown.
// Rewriting first mirrors what the engine run path will actually plan.
func (a *Autopilot) workloadCost(mined []MinedStatement, extra *views.Materialized) (float64, []float64, error) {
	per := make([]float64, len(mined))
	var total float64
	for i, m := range mined {
		q := a.applyAdopted(m.Query)
		if extra != nil {
			if nq, ok := extra.Rewrite(q); ok {
				q = nq
			}
		}
		p, err := a.opt.Plan(q, optimizer.NoHint())
		if err != nil {
			return 0, nil, fmt.Errorf("autopilot: costing %s: %w", m.Shape, err)
		}
		per[i] = p.EstCost * float64(m.DeltaCalls)
		total += per[i]
	}
	return total, per, nil
}

// applyAdopted folds q through every adopted view's rewriter, in adoption
// order — the same order the engine applies them.
func (a *Autopilot) applyAdopted(q *plan.Query) *plan.Query {
	for _, ad := range a.adopted {
		if ad.view == nil {
			continue
		}
		if nq, ok := ad.view.Rewrite(q); ok {
			q = nq
		}
	}
	return q
}

// proposeIndexes what-if costs a secondary index for every indexable
// predicate column in the mined workload, using a hypothetical (stats-only)
// index the executor refuses to scan.
func (a *Autopilot) proposeIndexes(mined []MinedStatement, base float64, basePer []float64) ([]proposal, error) {
	cat := a.host.Catalog()
	queries := make([]*plan.Query, len(mined))
	for i, m := range mined {
		queries[i] = m.Query
	}
	var props []proposal
	for _, c := range advisor.EnumerateCandidates(cat, queries) {
		t := cat.Table(c.TableID)
		if t.Index(c.Col) != nil {
			continue // already indexed, or under trial
		}
		t.AddIndex(catalog.NewHypotheticalIndex(t, c.Col))
		with, withPer, err := a.workloadCost(mined, nil)
		t.DropIndex(c.Col)
		if err != nil {
			return nil, err
		}
		n := float64(t.NumRows())
		props = append(props, proposal{
			kind: KindIndex, target: c.String(), tableID: c.TableID, col: c.Col,
			estBase:   base,
			estWith:   with,
			buildCost: a.opts.BuildCostWeight * n * log2ceil(n),
			netWin:    base - with - a.opts.BuildCostWeight*n*log2ceil(n),
			sizeBytes: int64(t.NumRows()) * 12,
			affected:  improvedIdx(basePer, withPer),
		})
	}
	return props, nil
}

// proposeViews what-if costs the workload's hottest join pairs as
// materialized views, each probed through a transient hypothetical catalog
// table whose row count is the optimizer's own join estimate and whose
// column statistics alias the base tables'.
func (a *Autopilot) proposeViews(mined []MinedStatement, base float64, basePer []float64) ([]proposal, error) {
	cat := a.host.Catalog()
	queries := make([]*plan.Query, len(mined))
	for i, m := range mined {
		queries[i] = m.Query
	}
	cands := views.EnumerateCandidates(queries)
	if len(cands) > maxViewCandidates {
		cands = cands[:maxViewCandidates]
	}
	var props []proposal
	for _, c := range cands {
		if a.adoptedView(c) {
			continue
		}
		estRows := a.estJoinRows(c)
		hypo, done, err := a.hypotheticalView(c, estRows)
		if err != nil {
			return nil, err
		}
		with, withPer, err := a.workloadCost(mined, hypo)
		done()
		if err != nil {
			return nil, err
		}
		lt, rt := cat.Table(c.LeftID), cat.Table(c.RightID)
		build := a.opts.BuildCostWeight * (float64(lt.NumRows()) + float64(rt.NumRows()) + estRows)
		props = append(props, proposal{
			kind: KindView, target: c.String(), tableID: -1, col: -1, viewCand: c,
			estBase:   base,
			estWith:   with,
			buildCost: build,
			netWin:    base - with - build,
			sizeBytes: int64(estRows) * int64(lt.NumCols()+rt.NumCols()) * 8,
			affected:  improvedIdx(basePer, withPer),
		})
	}
	return props, nil
}

// adoptedView reports whether the candidate's join pair is already adopted.
func (a *Autopilot) adoptedView(c views.Candidate) bool {
	for _, ad := range a.adopted {
		if ad.view != nil && ad.view.Cand == c {
			return true
		}
	}
	return false
}

// hypotheticalView registers a transient catalog table standing in for the
// unbuilt view — estimated row count, aliased base-column statistics, no
// data — and returns the rewriter bound to it plus the cleanup that drops
// the table again. Costing sees a real table; nothing can execute against it
// (it reports rows but yields none, and it only lives inside one what-if).
func (a *Autopilot) hypotheticalView(c views.Candidate, estRows float64) (*views.Materialized, func(), error) {
	cat := a.host.Catalog()
	lt, rt := cat.Table(c.LeftID), cat.Table(c.RightID)
	names := make([]string, 0, lt.NumCols()+rt.NumCols())
	for i := range lt.Columns {
		names = append(names, "l_"+lt.Columns[i].Name)
	}
	for i := range rt.Columns {
		names = append(names, "r_"+rt.Columns[i].Name)
	}
	a.hypoSeq++
	t := catalog.NewTable(fmt.Sprintf("ap_hypo_%d", a.hypoSeq), names...)
	t.Data = nil
	t.Virtual = hypoRows{n: int(estRows)}
	for i := range lt.Columns {
		t.Columns[i].Stats = lt.Columns[i].Stats
	}
	for i := range rt.Columns {
		t.Columns[lt.NumCols()+i].Stats = rt.Columns[i].Stats
	}
	id, err := cat.Add(t)
	if err != nil {
		return nil, nil, err
	}
	m := views.NewHypothetical(c, id, lt.NumCols())
	return m, func() { _ = cat.DropLast(id) }, nil
}

// hypoRows backs a hypothetical view table with an estimated row count and
// no data.
type hypoRows struct{ n int }

// VirtualNumRows implements catalog.VirtualSource.
func (h hypoRows) VirtualNumRows() int { return h.n }

// VirtualRows implements catalog.VirtualSource.
func (h hypoRows) VirtualRows() [][]int64 { return nil }

// estJoinRows estimates the candidate view's row count with the optimizer's
// own join-selectivity estimator — deliberately inheriting its errors, which
// is exactly what the shadow trial exists to catch.
func (a *Autopilot) estJoinRows(c views.Candidate) float64 {
	cat := a.host.Catalog()
	q := plan.NewQuery(c.LeftID, c.RightID)
	q.AddJoin(expr.JoinCond{LeftTable: 0, LeftCol: c.LeftCol, RightTable: 1, RightCol: c.RightCol})
	tbl, _ := optimizer.Estimate(a.opt.Est, q, nil)
	est := float64(cat.Table(c.LeftID).NumRows()) * float64(cat.Table(c.RightID).NumRows()) * tbl.Sel[0]
	if math.IsNaN(est) || math.IsInf(est, 0) || est < 1 {
		est = 1
	}
	return est
}

// improvedIdx returns the indexes whose estimated cost strictly improved.
func improvedIdx(base, with []float64) []int {
	var out []int
	for i := range base {
		if with[i] < base[i] {
			out = append(out, i)
		}
	}
	return out
}

// log2ceil is log2 clamped below at 1, for build-cost charging.
func log2ceil(n float64) float64 {
	if n < 2 {
		return 1
	}
	return math.Log2(n)
}

// minePass runs one full observe→propose→adopt pass: mine the workload,
// cost the baseline, propose and gate index and view candidates, and adopt
// the best survivor (if any), opening its shadow trial.
func (a *Autopilot) minePass(now time.Time) error {
	mined := a.mineWorkload()
	if len(mined) == 0 {
		return nil
	}
	base, basePer, err := a.workloadCost(mined, nil)
	if err != nil {
		return err
	}
	if base <= 0 {
		return nil
	}
	idxProps, err := a.proposeIndexes(mined, base, basePer)
	if err != nil {
		return err
	}
	viewProps, err := a.proposeViews(mined, base, basePer)
	if err != nil {
		return err
	}
	props := append(idxProps, viewProps...)

	var best *proposal
	for i := range props {
		p := &props[i]
		pass := p.netWin > 0 &&
			base-p.estWith >= a.opts.MinWinFrac*base &&
			a.memUsed+p.sizeBytes <= memoryBudgetBytes &&
			len(p.affected) > 0
		ev := TuningEvent{
			Kind: p.kind, Target: p.target, TableID: p.tableID, Col: p.col,
			EstBase: p.estBase, EstWith: p.estWith, BuildCost: p.buildCost,
			NetWin: p.netWin, SizeBytes: p.sizeBytes,
		}
		if pass {
			ev.Stage = StageCandidate
		} else {
			ev.Stage = StageRejected
		}
		a.emitLocked(now, ev)
		if !pass {
			continue
		}
		if best == nil || p.netWin > best.netWin ||
			(!(p.netWin < best.netWin) && p.target < best.target) {
			best = p
		}
	}
	if best == nil {
		return nil
	}
	return a.adoptLocked(now, best, mined)
}
