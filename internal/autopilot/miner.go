package autopilot

import (
	"sort"

	"ml4db/internal/sqlkit/plan"
)

// MinedStatement is one ranked entry of the tuning workload: a statement
// template with its observed growth since the previous mining pass.
type MinedStatement struct {
	Shape string
	Query *plan.Query
	// DeltaWork/DeltaCalls/DeltaMisses are the statement's growth since the
	// previous mining pass (lifetime totals on the first pass), so the miner
	// chases what is hot NOW rather than what was hot once.
	DeltaWork   int64
	DeltaCalls  int64
	DeltaMisses int64
}

// stmtTotals is the lifetime-counter snapshot the miner diffs against.
type stmtTotals struct{ work, calls, misses int64 }

// mineWorkload snapshots the querystore, diffs every statement against the
// previous pass, and returns the top statements by recent work, hottest
// first. Statements without a template, without recent traffic, or touching
// non-tunable tables (virtual system views, disk-backed tables) are skipped —
// but their totals still advance, so they never leak stale deltas into a later
// pass.
func (a *Autopilot) mineWorkload() []MinedStatement {
	var mined []MinedStatement
	for _, st := range a.opts.Store.Statements() {
		prev := a.prev[st.Shape]
		a.prev[st.Shape] = stmtTotals{work: st.TotalWork, calls: st.Calls, misses: st.PageMisses}
		if st.Template == nil {
			continue
		}
		m := MinedStatement{
			Shape: st.Shape, Query: st.Template,
			DeltaWork:   st.TotalWork - prev.work,
			DeltaCalls:  st.Calls - prev.calls,
			DeltaMisses: st.PageMisses - prev.misses,
		}
		if m.DeltaCalls <= 0 || m.DeltaWork <= 0 {
			continue
		}
		if !a.tunable(m.Query) {
			continue
		}
		mined = append(mined, m)
	}
	sort.Slice(mined, func(i, j int) bool {
		if mined[i].DeltaWork != mined[j].DeltaWork {
			return mined[i].DeltaWork > mined[j].DeltaWork
		}
		return mined[i].Shape < mined[j].Shape
	})
	if len(mined) > topStatements {
		mined = mined[:topStatements]
	}
	return mined
}

// tunable reports whether every table the query touches is a plain in-memory
// table — the only objects the loop can index or fold into views. Virtual
// system views and disk-backed tables disqualify the statement.
func (a *Autopilot) tunable(q *plan.Query) bool {
	cat := a.host.Catalog()
	for _, tid := range q.Tables {
		if tid < 0 || tid >= len(cat.Tables) {
			return false
		}
		t := cat.Table(tid)
		if t.Virtual != nil || t.Disk != nil {
			return false
		}
	}
	return true
}
