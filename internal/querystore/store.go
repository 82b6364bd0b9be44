package querystore

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ml4db/internal/mlmath"
	"ml4db/internal/obs"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/plan"
	"ml4db/internal/storage"
)

// PoolStatsSource supplies buffer-pool statistics sampled at window seals;
// *storage.Pool implements it.
type PoolStatsSource interface {
	Stats() storage.PoolStats
}

const (
	// window is the aggregation window length.
	window = time.Second
	// maxWindows bounds the ring of sealed windows.
	maxWindows = 64
	// maxStatements bounds the number of distinct statement shapes tracked;
	// observations for shapes beyond the cap update only window aggregates
	// (DroppedStatements counts them).
	maxStatements = 512
)

// Options configures a Store.
type Options struct {
	// Clock advances the window ring. Nil means the system clock; inject a
	// mlmath.ManualClock for bit-identical replays.
	Clock mlmath.Clock
	// Catalog, when non-nil, lets the store harvest observed scan
	// selectivities for the column heat map (it needs table row counts).
	// Without it the heat map still counts filter-column appearances but
	// records selectivities for join columns only.
	Catalog *catalog.Catalog
	// Pool, when non-nil, is sampled when the store is built and at every
	// window seal; the per-window hit/miss deltas feed the hit-rate drift
	// monitor.
	Pool PoolStatsSource
}

// Observation is one executed query as the engine saw it. Shape is the
// engine's normalized statement key and Query the caller's query it was
// computed from — before any view rewrite, unlike Plan; Plan is the executed
// plan tree, shared with the plan cache and every session, so the store only
// reads it; Actuals is what this execution's operators measured
// (exec.Result.Actuals). Without one record per node of Plan the observation
// feeds the statement counters only, like a budget abort.
type Observation struct {
	Shape            string
	Query            *plan.Query
	Work             int64
	Rows             int64
	PageMisses       int64
	CacheHit         bool
	Fallback         bool
	BudgetAbort      bool
	EstimatorVersion int
	Plan             *plan.Node
	Actuals          []plan.Actual
}

// StatementStats is the accumulated record of one normalized statement.
type StatementStats struct {
	ID           int64 // first-seen order, dense from 0
	Shape        string
	Calls        int64
	CacheHits    int64
	Fallbacks    int64
	BudgetAborts int64
	TotalWork    int64
	MaxWork      int64
	TotalRows    int64
	PageMisses   int64
	// QErrCount calls contributed a cardinality-error sample (budget aborts
	// and plan-less observations do not). QErrSum accumulates the per-call
	// mean plan-node q-error; QErrMax is the largest single-node q-error
	// seen. Estimates and actuals get a +1 pseudocount, so empty results
	// never divide by zero.
	QErrCount int64
	QErrSum   float64
	QErrMax   float64
	// LastWindow is the index of the window ring the statement's most recent
	// call landed in — the recency signal tuning loops rank by, so a
	// once-hot statement ages out of the mined workload.
	LastWindow int64
	// Template is a representative query of the statement: a copy of the
	// tables, filters and join conditions of the caller's query (not its
	// aggregation), taken with the statement's first harvested plan. It names
	// base tables even when that plan ran over a view, is nil when no plan was
	// harvested or the observation carried no query, and is shared across
	// snapshots — callers must treat it as read-only.
	Template *plan.Query
}

// QErrMean returns the mean per-call q-error, or 0 with no samples.
func (s StatementStats) QErrMean() float64 {
	if s.QErrCount == 0 {
		return 0
	}
	return s.QErrSum / float64(s.QErrCount)
}

// RowsPerCall returns the mean result rows per call, or 0 with no calls.
func (s StatementStats) RowsPerCall() float64 {
	if s.Calls == 0 {
		return 0
	}
	return float64(s.TotalRows) / float64(s.Calls)
}

// ColumnHeat is the observed pressure on one table column: how often it
// appeared in scan filters and join conditions, with the mean observed
// selectivity of the scans/joins it appeared in.
type ColumnHeat struct {
	TableID     int
	Col         int
	FilterCount int64
	JoinCount   int64
	SelCount    int64
	SelSum      float64
}

// SelMean returns the mean observed selectivity, or 0 with no samples.
func (h ColumnHeat) SelMean() float64 {
	if h.SelCount == 0 {
		return 0
	}
	return h.SelSum / float64(h.SelCount)
}

// Store is the workload observatory. All methods are safe for concurrent
// use and no-op on a nil receiver.
type Store struct {
	opts  Options
	clock mlmath.Clock

	mu        sync.Mutex
	stmts     map[string]*StatementStats
	stmtOrder []string // shapes in first-seen order (snapshot order)
	// numStmts is len(stmtOrder), which sys_statements reads as its row
	// count without the lock: Record reads row counts while it holds it.
	numStmts   atomic.Int64
	dropped    int64
	heat       map[heatKey]*ColumnHeat
	windows    *obs.Ledger[WindowStats]
	cur        winAgg
	curStarted bool
	nextIndex  int64 // the index a window opened after a seal takes
	drift      driftState
	models     *obs.Ledger[ModelEvent]
}

type heatKey struct{ table, col int }

// New builds a Store. A pool's traffic before New is no window's: the first
// window's pool deltas start from the pool's statistics here.
func New(opts Options) *Store {
	s := &Store{
		opts:    opts,
		clock:   mlmath.ClockOrSystem(opts.Clock),
		stmts:   make(map[string]*StatementStats),
		heat:    make(map[heatKey]*ColumnHeat),
		windows: obs.NewLedger[WindowStats](maxWindows, nil),
		drift:   driftState{events: obs.NewLedger(obs.MaxEvents, func(e *DriftEvent, n int64) { e.Seq = n + 1 })},
		models:  obs.NewLedger(obs.MaxEvents, func(e *ModelEvent, n int64) { e.Seq = n + 1 }),
	}
	if opts.Pool != nil {
		ps := opts.Pool.Stats()
		s.drift.lastPoolHits, s.drift.lastPoolMisses = ps.Hits, ps.Misses
	}
	return s
}

// Record folds one executed query into the store. It advances the window
// ring first, so an observation after a window boundary seals the old
// window (and may fire drift events) before being counted in the new one.
// Nil stores no-op without allocating.
func (s *Store) Record(o Observation) {
	if s == nil {
		return
	}
	now := s.clock.Now()

	s.mu.Lock()
	s.advanceLocked(now)
	h := s.harvestLocked(o)
	s.recordStatementLocked(o, h)
	s.cur.add(o, h)
	s.mu.Unlock()
}

// Flush seals the current window (if it has observations) so snapshots and
// exports include it; drift monitors run over it like any other seal.
func (s *Store) Flush() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sealLocked()
}

func (s *Store) recordStatementLocked(o Observation, h harvestResult) {
	e, ok := s.stmts[o.Shape]
	if !ok {
		if len(s.stmtOrder) >= maxStatements {
			s.dropped++
			return
		}
		e = &StatementStats{ID: int64(len(s.stmtOrder)), Shape: o.Shape}
		s.stmts[o.Shape] = e
		s.stmtOrder = append(s.stmtOrder, o.Shape)
		s.numStmts.Store(int64(len(s.stmtOrder)))
	}
	e.Calls++
	if o.CacheHit {
		e.CacheHits++
	}
	if o.Fallback {
		e.Fallbacks++
	}
	if o.BudgetAbort {
		e.BudgetAborts++
	}
	e.TotalWork += o.Work
	if o.Work > e.MaxWork {
		e.MaxWork = o.Work
	}
	e.TotalRows += o.Rows
	e.PageMisses += o.PageMisses
	e.LastWindow = s.cur.index
	if e.Template == nil && h.ok && o.Query != nil {
		e.Template = template(o.Query)
	}
	if h.ok {
		e.QErrCount++
		e.QErrSum += h.qerrMean
		if h.qerrMax > e.QErrMax {
			e.QErrMax = h.qerrMax
		}
	}
}

// DroppedStatements returns how many observations were not attributed to a
// statement because the shape cap was reached.
func (s *Store) DroppedStatements() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// numStatements returns how many statements are tracked, without copying
// them (the optimizer asks for a view's row count more than once per plan).
func (s *Store) numStatements() int { return int(s.numStmts.Load()) }

// Statements returns the statement records in first-seen (ID) order.
func (s *Store) Statements() []StatementStats {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]StatementStats, 0, len(s.stmtOrder))
	for _, shape := range s.stmtOrder {
		out = append(out, *s.stmts[shape])
	}
	return out
}

// Heat returns the column heat map sorted by (table, column).
func (s *Store) Heat() []ColumnHeat {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]heatKey, 0, len(s.heat))
	for k := range s.heat {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].table != keys[j].table {
			return keys[i].table < keys[j].table
		}
		return keys[i].col < keys[j].col
	})
	out := make([]ColumnHeat, 0, len(keys))
	for _, k := range keys {
		out = append(out, *s.heat[k])
	}
	return out
}

// harvestResult is what one observation's plan tree contributed to its
// statement and window: a per-call q-error sample.
type harvestResult struct {
	ok       bool // a q-error sample was produced
	qerrMean float64
	qerrMax  float64
}

// harvestLocked walks the executed plan tree beside what its operators
// measured, folding each column heat sample into the heat map as it goes.
// Budget-aborted executions are skipped entirely (their actuals describe a
// partial run), as are observations whose actuals do not cover the tree.
func (s *Store) harvestLocked(o Observation) harvestResult {
	var h harvestResult
	if o.Plan == nil || o.BudgetAbort || len(o.Actuals) != o.Plan.NumNodes() {
		return h
	}
	var sum float64
	ord := 0
	o.Plan.Walk(func(n *plan.Node) {
		q := pseudoQErr(n.EstRows, float64(o.Actuals[ord].Rows))
		sum += q
		if q > h.qerrMax {
			h.qerrMax = q
		}
		s.heatLocked(n, o.Actuals[ord:])
		ord++
	})
	h.ok = true
	h.qerrMean = sum / float64(ord)
	return h
}

// template copies the select-project-join part of q, keeping nil slices nil.
func template(q *plan.Query) *plan.Query {
	t := &plan.Query{
		Tables:  append([]int(nil), q.Tables...),
		Filters: make([][]expr.Pred, len(q.Filters)),
		Joins:   append([]expr.JoinCond(nil), q.Joins...),
	}
	for pos, fs := range q.Filters {
		t.Filters[pos] = append([]expr.Pred(nil), fs...)
	}
	return t
}

// heatLocked folds the node's heat samples into the heat map. Scan leaves
// attribute the leaf's observed selectivity (output rows over table rows) to
// each filter column — an approximation when a leaf carries several
// conjuncts, but the right signal for "how selective are predicates touching
// this column". Join nodes attribute the observed join selectivity (output
// over the cross-product of the inputs) to both columns of the key
// condition, Conds[0]. actuals holds the subtree's records, n's own first. A
// virtual table's row count may read this store: sys_statements' reads an
// atomic, the other views' their ledgers' own locks.
func (s *Store) heatLocked(n *plan.Node, actuals []plan.Actual) {
	if n.IsLeaf() {
		hasSel, sel := false, 0.0
		if cat := s.opts.Catalog; cat != nil && len(n.Filters) > 0 {
			if rows := cat.Table(n.TableID).NumRows(); rows > 0 {
				hasSel, sel = true, float64(actuals[0].Rows)/float64(rows)
			}
		}
		for _, f := range n.Filters {
			s.foldHeatLocked(n.TableID, f.Col, false, hasSel, sel)
		}
		return
	}
	if len(n.Conds) == 0 || len(n.Children) != 2 {
		return
	}
	l, r, key := n.Children[0], n.Children[1], n.Conds[0]
	lt, rt := l.Leaf(key.LeftTable), r.Leaf(key.RightTable)
	if lt == nil || rt == nil {
		return
	}
	cross := float64(actuals[n.ChildAt(0)].Rows) * float64(actuals[n.ChildAt(1)].Rows)
	sel := 0.0
	hasSel := cross > 0
	if hasSel {
		sel = float64(actuals[0].Rows) / cross
	}
	s.foldHeatLocked(lt.TableID, key.LeftCol, true, hasSel, sel)
	s.foldHeatLocked(rt.TableID, key.RightCol, true, hasSel, sel)
}

// foldHeatLocked counts one heat sample of column col of a table: a filter's
// or a join key's, with its observed selectivity if it has one.
func (s *Store) foldHeatLocked(table, col int, join, hasSel bool, sel float64) {
	k := heatKey{table, col}
	e, ok := s.heat[k]
	if !ok {
		e = &ColumnHeat{TableID: table, Col: col}
		s.heat[k] = e
	}
	if join {
		e.JoinCount++
	} else {
		e.FilterCount++
	}
	if hasSel {
		e.SelCount++
		e.SelSum += sel
	}
}

// pseudoQErr is the q-error of an (estimate, actual) row-count pair with a
// +1 pseudocount on both sides, so zero-row results stay finite. Always
// >= 1.
func pseudoQErr(est, actual float64) float64 {
	if est < 0 {
		est = 0
	}
	if actual < 0 {
		actual = 0
	}
	a, b := est+1, actual+1
	if a > b {
		return a / b
	}
	return b / a
}
