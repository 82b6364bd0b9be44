package views

import (
	"fmt"
	"math"
	"sort"

	"ml4db/internal/qo"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/exec"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/optimizer"
	"ml4db/internal/sqlkit/plan"
)

// Candidate is a two-table equi-join view: left ⋈ right on the columns.
type Candidate struct {
	LeftID, RightID   int
	LeftCol, RightCol int
}

// String renders the candidate.
func (c Candidate) String() string {
	return fmt.Sprintf("view(t%d.c%d=t%d.c%d)", c.LeftID, c.LeftCol, c.RightID, c.RightCol)
}

// EnumerateCandidates lists the distinct join pairs the workload uses, most
// frequent first.
func EnumerateCandidates(workload []*plan.Query) []Candidate {
	freq := map[Candidate]int{}
	for _, q := range workload {
		for _, j := range q.Joins {
			c := Candidate{
				LeftID: q.Tables[j.LeftTable], LeftCol: j.LeftCol,
				RightID: q.Tables[j.RightTable], RightCol: j.RightCol,
			}
			freq[c]++
		}
	}
	out := make([]Candidate, 0, len(freq))
	for c := range freq {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if freq[out[i]] != freq[out[j]] {
			return freq[out[i]] > freq[out[j]]
		}
		return out[i].String() < out[j].String()
	})
	return out
}

// Materialized is a built view: the precomputed join stored as a table.
type Materialized struct {
	Cand Candidate
	// TableID is the view's catalog table.
	TableID int
	// leftCols is the left table's column count: view columns are the left
	// table's columns followed by the right table's.
	leftCols int
}

// Materialize executes the candidate join and registers the result as a new
// catalog table (analyzed, so the optimizer can estimate over it).
func Materialize(env *qo.Env, c Candidate, name string) (*Materialized, error) {
	lt, rt := env.Cat.Table(c.LeftID), env.Cat.Table(c.RightID)
	q := plan.NewQuery(c.LeftID, c.RightID)
	q.AddJoin(expr.JoinCond{LeftTable: 0, LeftCol: c.LeftCol, RightTable: 1, RightCol: c.RightCol})
	p, err := env.Opt.Plan(q, optimizer.NoHint())
	if err != nil {
		return nil, fmt.Errorf("views: planning materialization: %w", err)
	}
	res, err := env.Exec.Execute(p, exec.Options{})
	if err != nil {
		return nil, fmt.Errorf("views: materializing: %w", err)
	}
	// The view stores (left columns, right columns) whichever side the
	// optimizer put first: ask the executor where each side starts.
	lo, lok := exec.ColOffset(env.Cat, p, 0, 0)
	ro, rok := exec.ColOffset(env.Cat, p, 1, 0)
	if !lok || !rok {
		return nil, fmt.Errorf("views: materialization plan does not scan both tables")
	}
	names := make([]string, 0, lt.NumCols()+rt.NumCols())
	for i := range lt.Columns {
		names = append(names, fmt.Sprintf("l_%s", lt.Columns[i].Name))
	}
	for i := range rt.Columns {
		names = append(names, fmt.Sprintf("r_%s", rt.Columns[i].Name))
	}
	vt := catalog.NewTable(name, names...)
	vrow := make([]int64, 0, len(names))
	for _, row := range res.Rows {
		vrow = append(append(vrow[:0], row[lo:lo+lt.NumCols()]...), row[ro:ro+rt.NumCols()]...)
		if err := vt.AppendRow(vrow); err != nil {
			return nil, err
		}
	}
	catalog.AnalyzeTable(vt, 32, 512)
	id, err := env.Cat.Add(vt)
	if err != nil {
		return nil, err
	}
	return &Materialized{Cand: c, TableID: id, leftCols: lt.NumCols()}, nil
}

// SizeBytes reports the view's storage footprint.
func (m *Materialized) SizeBytes(cat *catalog.Catalog) int {
	t := cat.Table(m.TableID)
	return t.NumRows() * t.NumCols() * 8
}

// NewHypothetical returns an unbuilt Materialized bound to an existing
// catalog table laid out as (left columns, right columns). What-if costing
// uses it to rewrite workload queries against a hypothetical view table —
// one whose row count and statistics are estimates — without materializing
// anything.
func NewHypothetical(c Candidate, tableID, leftCols int) *Materialized {
	return &Materialized{Cand: c, TableID: tableID, leftCols: leftCols}
}

// Rewrite replaces the first occurrence of the view's join pair in q with
// the materialized view: the two base tables become one view table, filters
// move to the view's columns, and remaining joins re-anchor onto it.
// ok is false when q does not contain the pair, or joins it on a second
// condition too (see RewriteMapped).
func (m *Materialized) Rewrite(q *plan.Query) (*plan.Query, bool) {
	nq, _, ok := m.RewriteMapped(q)
	return nq, ok
}

// RewriteMapped is Rewrite plus the per-position map engine-side rewriting
// needs to route result columns: entry i gives the rewritten-query position
// of original position i and the offset its columns start at there. It
// implements plan.QueryRewriter. A query that joins the pair on a second
// condition as well is left alone: over the view that condition would compare
// two columns of one table, which no join node can carry.
func (m *Materialized) RewriteMapped(q *plan.Query) (*plan.Query, []plan.PosMap, bool) {
	matchIdx := -1
	var lPos, rPos int
	for i, j := range q.Joins {
		if q.Tables[j.LeftTable] == m.Cand.LeftID && j.LeftCol == m.Cand.LeftCol &&
			q.Tables[j.RightTable] == m.Cand.RightID && j.RightCol == m.Cand.RightCol {
			matchIdx, lPos, rPos = i, j.LeftTable, j.RightTable
			break
		}
	}
	if matchIdx < 0 {
		return nil, nil, false
	}
	for i, j := range q.Joins {
		if i != matchIdx && (j.LeftTable == lPos || j.LeftTable == rPos) && (j.RightTable == lPos || j.RightTable == rPos) {
			return nil, nil, false
		}
	}
	// New table list: all tables except lPos/rPos, plus the view at the end.
	var newTables []int
	oldToNew := map[int]int{}
	for pos, tid := range q.Tables {
		if pos == lPos || pos == rPos {
			continue
		}
		oldToNew[pos] = len(newTables)
		newTables = append(newTables, tid)
	}
	viewPos := len(newTables)
	newTables = append(newTables, m.TableID)
	nq := plan.NewQuery(newTables...)
	// Column mapping into the view: left cols keep offsets, right cols shift.
	mapCol := func(oldPos, col int) (int, int) {
		switch oldPos {
		case lPos:
			return viewPos, col
		case rPos:
			return viewPos, m.leftCols + col
		default:
			return oldToNew[oldPos], col
		}
	}
	for pos, preds := range q.Filters {
		for _, p := range preds {
			np, nc := mapCol(pos, p.Col)
			q2 := p
			q2.Col = nc
			nq.AddFilter(np, q2)
		}
	}
	for i, j := range q.Joins {
		if i == matchIdx {
			continue // absorbed into the view
		}
		lp, lc := mapCol(j.LeftTable, j.LeftCol)
		rp, rc := mapCol(j.RightTable, j.RightCol)
		nq.AddJoin(expr.JoinCond{LeftTable: lp, LeftCol: lc, RightTable: rp, RightCol: rc})
	}
	pm := make([]plan.PosMap, len(q.Tables))
	for pos := range q.Tables {
		np, shift := mapCol(pos, 0)
		pm[pos] = plan.PosMap{Pos: np, ColShift: shift}
	}
	return nq, pm, true
}

// Advisor selects views under a storage budget with a learned benefit model.
type Advisor struct {
	Env *qo.Env
	// seq makes generated view names unique across repeated probes.
	seq int
}

// New returns a view advisor.
func New(env *qo.Env) *Advisor { return &Advisor{Env: env} }

// workloadWork runs the workload, rewriting through the given views when
// possible, and returns total work.
func (a *Advisor) workloadWork(workload []*plan.Query, views []*Materialized) (int64, error) {
	var total int64
	for _, q := range workload {
		use := q
		for _, v := range views {
			if nq, ok := v.Rewrite(use); ok {
				use = nq
			}
		}
		var work int64
		var err error
		if use.NumTables() == 1 {
			p := plan.NewScan(0, use.Tables[0], use.Filters[0])
			res, execErr := a.Env.Exec.Execute(p, exec.Options{Output: exec.CountOnly})
			if execErr != nil {
				return 0, execErr
			}
			work = res.Work
		} else {
			p, perr := a.Env.Opt.Plan(use, optimizer.NoHint())
			if perr != nil {
				return 0, perr
			}
			work, _, err = a.Env.Run(p, 0)
			if err != nil {
				return 0, err
			}
		}
		total += work
	}
	return total, nil
}

// MeasuredBenefit materializes the candidate, measures the workload saving,
// and drops the view again. The view's build cost is not charged (views
// amortize over the workload's lifetime); storage is the budgeted resource.
func (a *Advisor) MeasuredBenefit(c Candidate, workload []*plan.Query) (benefit float64, sizeBytes int, err error) {
	base, err := a.workloadWork(workload, nil)
	if err != nil {
		return 0, 0, err
	}
	a.seq++
	v, err := Materialize(a.Env, c, fmt.Sprintf("v_probe_%d_%d_%d", c.LeftID, c.RightID, a.seq))
	if err != nil {
		return 0, 0, err
	}
	with, err := a.workloadWork(workload, []*Materialized{v})
	size := v.SizeBytes(a.Env.Cat)
	dropView(a.Env.Cat, v)
	if err != nil {
		return 0, 0, err
	}
	return float64(base - with), size, nil
}

// dropView empties the view table (catalog entries are append-only; an
// emptied view is never chosen by the rewriter because we also remove it
// from the advisor's active list — this keeps the catalog's ID space
// stable).
func dropView(cat *catalog.Catalog, v *Materialized) {
	t := cat.Table(v.TableID)
	for c := range t.Data {
		t.Data[c] = nil
	}
}

// Drop empties the view's backing table in place, reclaiming its storage
// while keeping the catalog's ID space stable. The caller must stop
// rewriting through the view first (and invalidate any cached plans over
// it): an emptied view that still receives rewrites would silently return no
// rows.
func Drop(cat *catalog.Catalog, v *Materialized) { dropView(cat, v) }

// Select greedily picks views maximizing measured benefit per byte under the
// storage budget — the execution-feedback-driven selection loop (AVGDL's RL
// selector reduced to its greedy core over measured rewards).
func (a *Advisor) Select(cands []Candidate, workload []*plan.Query, budgetBytes int) ([]*Materialized, error) {
	type scored struct {
		c       Candidate
		benefit float64
		size    int
	}
	var ss []scored
	for _, c := range cands {
		b, size, err := a.MeasuredBenefit(c, workload)
		if err != nil {
			return nil, err
		}
		ss = append(ss, scored{c, b, size})
	}
	sort.Slice(ss, func(i, j int) bool {
		return ss[i].benefit/math.Max(1, float64(ss[i].size)) > ss[j].benefit/math.Max(1, float64(ss[j].size))
	})
	var chosen []*Materialized
	used := 0
	for _, s := range ss {
		if s.benefit <= 0 || used+s.size > budgetBytes {
			continue
		}
		a.seq++
		v, err := Materialize(a.Env, s.c, fmt.Sprintf("v_%d_%d_%d", s.c.LeftID, s.c.RightID, a.seq))
		if err != nil {
			return nil, err
		}
		chosen = append(chosen, v)
		used += s.size
	}
	return chosen, nil
}

// WorkloadWork exposes workload evaluation with a view set.
func (a *Advisor) WorkloadWork(workload []*plan.Query, views []*Materialized) (int64, error) {
	return a.workloadWork(workload, views)
}
