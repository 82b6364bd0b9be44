package exec

import (
	"errors"
	"fmt"
	"sort"

	"ml4db/internal/mlmath"
	"ml4db/internal/obs"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/plan"
)

// ErrWorkBudgetExceeded is the budget-abort sentinel. Execution aborts
// return a *BudgetExceededError carrying which limit tripped and how far;
// errors.Is(err, ErrWorkBudgetExceeded) matches any budget abort, so legacy
// callers keep working.
var ErrWorkBudgetExceeded = errors.New("exec: work budget exceeded")

// Budget is a deterministic per-query resource limit, checked in the
// executor's operator loops. Budgets are counted in work units and
// materialized tuples — never wall-clock time — so an aborted execution
// aborts at exactly the same point on every replay (the property that keeps
// engine-level cancellation byte-identical under mlmath.ManualClock).
type Budget struct {
	// MaxWork aborts execution once this many work units are consumed.
	// Zero means unlimited.
	MaxWork int64
	// MaxRows aborts execution once the operators have materialized this
	// many output tuples in total (scan outputs and join outputs alike).
	// Zero means unlimited.
	MaxRows int64
}

// BudgetExceededError reports a deterministic budget abort: which limit
// tripped, the configured limit, and the counter value at the abort point.
// It matches ErrWorkBudgetExceeded under errors.Is.
type BudgetExceededError struct {
	// Kind is "work" or "rows".
	Kind        string
	Limit, Used int64
}

// Error implements error.
func (e *BudgetExceededError) Error() string {
	return fmt.Sprintf("exec: %s budget exceeded (limit %d, used %d)", e.Kind, e.Limit, e.Used)
}

// Is reports budget aborts as ErrWorkBudgetExceeded so existing sentinel
// comparisons via errors.Is keep matching.
func (e *BudgetExceededError) Is(target error) bool { return target == ErrWorkBudgetExceeded }

// Options configures execution.
type Options struct {
	// Budget, when non-nil, bounds the execution's work units and
	// materialized rows (see Budget). Aborts surface as
	// *BudgetExceededError.
	Budget *Budget
	// Analyze collects per-operator EXPLAIN ANALYZE stats into
	// Result.Explain.
	Analyze bool
	// Span, when the executor has a Tracer, becomes the parent of the
	// execution's spans — letting callers nest execute under a query span.
	Span *obs.Span
	// Pool runs partitioned operators' shards in parallel. A nil pool (or a
	// one-worker pool) runs every shard inline on the calling goroutine.
	// The results are bit-identical for any pool: partitioning is a pure
	// function of the plan's Partitions knob, and shard outputs and accounts
	// are folded in fixed shard order (see exchange.go).
	Pool *mlmath.Pool
}

// workBuckets are the histogram bounds for the exec.work metric, shared so
// the per-query hot path never rebuilds them.
var workBuckets = obs.ExpBuckets(16, 4, 12)

// Counters break total work down by operation category — the quantities a
// formula cost model weights with its parameters. ParamTree (§3.2) fits
// those parameters from observed (Counters, latency) pairs.
type Counters struct {
	ScanTuples  int64 // tuples read by SeqScan
	HashBuild   int64 // build-side tuples of HashJoin
	HashProbe   int64 // probe-side tuples of HashJoin
	NLPairs     int64 // (outer, inner) pairs of NLJoin
	MergeSort   int64 // tuple·log(tuple) units of MergeJoin sorting
	MergeScan   int64 // merge-phase steps of MergeJoin
	OutputTuple int64 // join output tuples (hash and merge), and HashAgg groups emitted
	IndexProbe  int64 // binary-search steps of IndexScan probes
	IndexFetch  int64 // rows fetched through a secondary index
	PageMiss    int64 // buffer-pool misses charged to disk-table scans
	AggInput    int64 // input tuples accumulated by HashAgg
}

// Total sums all categories (each weighted 1): the executor's work units.
func (c Counters) Total() int64 {
	return c.ScanTuples + c.HashBuild + c.HashProbe + c.NLPairs +
		c.MergeSort + c.MergeScan + c.OutputTuple + c.IndexProbe + c.IndexFetch +
		c.PageMiss + c.AggInput
}

// Vec returns the counters in optimizer.CostParams.Vec order.
func (c Counters) Vec() []float64 {
	return []float64{
		float64(c.ScanTuples), float64(c.HashBuild), float64(c.HashProbe),
		float64(c.NLPairs), float64(c.MergeSort), float64(c.MergeScan),
		float64(c.OutputTuple), float64(c.IndexProbe), float64(c.IndexFetch),
		float64(c.PageMiss), float64(c.AggInput),
	}
}

// Result is the outcome of executing a plan.
type Result struct {
	// Rows holds the materialized output tuples.
	Rows [][]int64
	// Work is the total deterministic work units consumed.
	Work int64
	// Counters break Work down by operation category.
	Counters Counters
	// Explain holds per-operator stats when Options.Analyze was set.
	Explain *Explain
}

// Executor runs plans against a catalog. The observability fields are all
// optional: with Trace, Metrics, and Clock left nil the executor behaves
// exactly as before and the instrumentation costs one branch per operator.
type Executor struct {
	Cat *catalog.Catalog
	// Trace records spans around Execute and each operator.
	Trace *obs.Tracer
	// Metrics receives exec.queries and the exec.work histogram.
	Metrics *obs.Registry
	// Clock times operators for EXPLAIN ANALYZE; nil means the system
	// clock. Inject a ManualClock (shared with the Tracer) for
	// deterministic timings.
	Clock mlmath.Clock
}

// New returns an executor over the catalog.
func New(cat *catalog.Catalog) *Executor { return &Executor{Cat: cat} }

// Execute runs the plan and returns the result. Node.ActualRows annotations
// are filled in along the way.
func (e *Executor) Execute(root *plan.Node, opts Options) (*Result, error) {
	st := &execState{cat: e.Cat, pool: opts.Pool}
	if b := opts.Budget; b != nil {
		st.maxWork, st.maxRows = b.MaxWork, b.MaxRows
	}
	observed := opts.Analyze || e.Trace != nil
	if observed {
		st.tr = e.Trace
		st.clock = mlmath.ClockOrSystem(e.Clock)
		if opts.Analyze {
			st.ex = &Explain{Root: root, stats: make(map[*plan.Node]*OpStats)}
		}
		st.cur = st.tr.StartSpan("exec.execute", opts.Span)
	}
	rows, err := st.run(root)
	if st.ex != nil {
		st.ex.finish()
	}
	if observed {
		st.cur.SetInt("work", st.work).SetInt("rows", int64(len(rows))).End()
	}
	if e.Metrics != nil {
		e.Metrics.Counter("exec.queries").Inc()
		e.Metrics.Histogram("exec.work", workBuckets).Observe(float64(st.work))
	}
	if err != nil {
		return &Result{Work: st.work, Counters: st.ctr, Explain: st.ex}, err
	}
	return &Result{Rows: rows, Work: st.work, Counters: st.ctr, Explain: st.ex}, nil
}

// ExecuteCount is Execute but discards rows, returning only cardinality and
// work — the common case for training-signal collection.
func (e *Executor) ExecuteCount(root *plan.Node, opts Options) (card int, work int64, err error) {
	res, err := e.Execute(root, opts)
	if err != nil {
		return 0, res.Work, err
	}
	return len(res.Rows), res.Work, nil
}

// acct is one budget account: the counters charged so far, their totals, and
// the limits the totals are held to. The execution owns the live account;
// each shard of a partitioned operator charges a private one that the
// coordinator folds into the live account in shard order (see exchange.go).
type acct struct {
	ctr     Counters
	work    int64
	rows    int64 // tuples materialized by all operators
	maxWork int64
	maxRows int64
}

type execState struct {
	acct // the live account
	cat  *catalog.Catalog
	// pool runs partitioned operators' shards; nil means inline. Shards
	// never touch this struct — each charges a private acct.
	pool *mlmath.Pool

	// Observability state, all nil/unused on the fast path.
	ex    *Explain
	tr    *obs.Tracer
	cur   *obs.Span // innermost open span: parent for the next operator
	clock mlmath.Clock
}

// charge adds units to the given category counter and the total, enforcing
// the work budget.
func (a *acct) charge(counter *int64, units int64) error {
	*counter += units
	a.work += units
	if a.maxWork > 0 && a.work > a.maxWork {
		return &BudgetExceededError{Kind: "work", Limit: a.maxWork, Used: a.work}
	}
	return nil
}

// chargeRows counts tuples materialized by an operator, enforcing the row
// budget.
func (a *acct) chargeRows(n int64) error {
	a.rows += n
	if a.maxRows > 0 && a.rows > a.maxRows {
		return &BudgetExceededError{Kind: "rows", Limit: a.maxRows, Used: a.rows}
	}
	return nil
}

// run evaluates one plan node. The fast path — no EXPLAIN ANALYZE, no
// tracer — dispatches directly so uninstrumented execution pays a single
// branch per operator.
func (s *execState) run(n *plan.Node) ([][]int64, error) {
	if s.ex == nil && s.tr == nil {
		return s.dispatch(n)
	}
	return s.runObserved(n)
}

// runObserved wraps dispatch with a per-operator span and accumulates the
// node's subtree totals (work, counters, clock time) for EXPLAIN ANALYZE.
func (s *execState) runObserved(n *plan.Node) ([][]int64, error) {
	prev := s.cur
	sp := s.tr.StartSpan(opSpanName(n.Op), prev)
	s.cur = sp
	workBefore, ctrBefore := s.work, s.ctr
	start := s.clock.Now()
	rows, err := s.dispatch(n)
	dur := s.clock.Now().Sub(start)
	if s.ex != nil {
		st := s.ex.stat(n)
		st.Loops++
		st.Rows += int64(len(rows))
		st.SubtreeWork += s.work - workBefore
		st.SubtreeCounters = addCounters(st.SubtreeCounters, subCounters(s.ctr, ctrBefore))
		st.SubtreeDur += dur
	}
	sp.SetInt("rows", int64(len(rows))).SetInt("work", s.work-workBefore)
	sp.End()
	s.cur = prev
	return rows, err
}

func (s *execState) dispatch(n *plan.Node) ([][]int64, error) {
	switch n.Op {
	case plan.OpSeqScan:
		return s.seqScan(n)
	case plan.OpIndexScan:
		return s.indexScan(n)
	case plan.OpHashJoin:
		return s.hashJoin(n)
	case plan.OpNLJoin:
		return s.nlJoin(n)
	case plan.OpMergeJoin:
		return s.mergeJoin(n)
	case plan.OpHashAgg:
		return s.hashAgg(n)
	default:
		return nil, fmt.Errorf("exec: unknown operator %v", n.Op)
	}
}

func (s *execState) seqScan(n *plan.Node) ([][]int64, error) {
	t := s.cat.Table(n.TableID)
	if t.Virtual != nil {
		return s.seqScanVirtual(n, t) // virtual sources materialize as a unit; Partitions is ignored
	}
	if t.Disk != nil {
		return s.seqScanDisk(n, t)
	}
	nCols, data, filters := t.NumCols(), t.Data, n.Filters
	out, err := s.ranged(t.NumRows(), n.Partitions, func(a *acct, _, lo, hi int) ([][]int64, error) {
		var out [][]int64
		for r := lo; r < hi; r++ {
			if err := a.charge(&a.ctr.ScanTuples, 1); err != nil {
				return nil, err
			}
			ok := true
			for _, f := range filters {
				if !f.Eval(data[f.Col][r]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			if err := a.chargeRows(1); err != nil {
				return nil, err
			}
			row := make([]int64, nCols)
			for c := 0; c < nCols; c++ {
				row[c] = data[c][r]
			}
			out = append(out, row)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	n.ActualRows = float64(len(out))
	return out, nil
}

// indexScan reads the rows matching the node's interval predicate on
// IndexCol through the secondary index, then applies the remaining filters.
func (s *execState) indexScan(n *plan.Node) ([][]int64, error) {
	t := s.cat.Table(n.TableID)
	ix := t.Index(n.IndexCol)
	if ix == nil {
		return nil, fmt.Errorf("exec: no index on column %d of %s", n.IndexCol, t.Name)
	}
	if ix.Hypothetical {
		return nil, fmt.Errorf("exec: index on column %d of %s is hypothetical (what-if only)", n.IndexCol, t.Name)
	}
	lo, hi, residual, ok := indexInterval(t, n)
	if !ok {
		return nil, fmt.Errorf("exec: IndexScan on %s has no interval predicate on c%d", t.Name, n.IndexCol)
	}
	// One probe costs a binary search over the index.
	if err := s.charge(&s.ctr.IndexProbe, plan.ProbeSteps(ix.Len())); err != nil {
		return nil, err
	}
	if t.Disk != nil {
		return s.indexScanDisk(n, t, ix, lo, hi, residual)
	}
	nCols := t.NumCols()
	var out [][]int64
	fetched := 0
	for _, r := range ix.RangeRows(lo, hi) {
		if err := s.charge(&s.ctr.IndexFetch, 1); err != nil {
			return nil, err
		}
		fetched++
		okRow := true
		for _, f := range residual {
			if !f.Eval(t.Data[f.Col][r]) {
				okRow = false
				break
			}
		}
		if !okRow {
			continue
		}
		if err := s.chargeRows(1); err != nil {
			return nil, err
		}
		row := make([]int64, nCols)
		for c := 0; c < nCols; c++ {
			row[c] = t.Data[c][int(r)]
		}
		out = append(out, row)
	}
	n.ActualRows = float64(len(out))
	n.ActualFetched = float64(fetched)
	return out, nil
}

// indexInterval extracts the interval on n.IndexCol from the node's filters
// (intersecting multiple interval predicates on that column) and returns the
// remaining predicates.
func indexInterval(t *catalog.Table, n *plan.Node) (lo, hi int64, residual []expr.Pred, ok bool) {
	domLo, domHi := int64(-1<<62), int64(1<<62)
	if st := t.Columns[n.IndexCol].Stats; st != nil && st.Count > 0 {
		domLo, domHi = st.Min, st.Max
	}
	lo, hi = domLo, domHi
	found := false
	for _, f := range n.Filters {
		if f.Col == n.IndexCol {
			if l, h, isInterval := f.Range(domLo, domHi); isInterval {
				if l > lo {
					lo = l
				}
				if h < hi {
					hi = h
				}
				found = true
				continue
			}
		}
		residual = append(residual, f)
	}
	return lo, hi, residual, found
}

// children resolves a join's conditions to offsets into its inputs' rows
// (keys[0] is the hash or merge key; see ColOffset), then runs both inputs.
func (s *execState) children(n *plan.Node) (left, right [][]int64, keys []keyPair, err error) {
	if keys, err = s.joinKeys(n); err != nil {
		return nil, nil, nil, err
	}
	if left, err = s.run(n.Children[0]); err != nil {
		return nil, nil, nil, err
	}
	if right, err = s.run(n.Children[1]); err != nil {
		return nil, nil, nil, err
	}
	return left, right, keys, nil
}

func joinRows(l, r []int64) []int64 {
	out := make([]int64, 0, len(l)+len(r))
	out = append(out, l...)
	return append(out, r...)
}

func (s *execState) hashJoin(n *plan.Node) ([][]int64, error) {
	left, right, keys, err := s.children(n)
	if err != nil {
		return nil, err
	}
	// Build on the left child, probe with the right, keyed on the first
	// condition; key matches that fail a later condition emit nothing.
	key, rest := keys[0], keys[1:]
	ht := make(map[int64][]int, len(left))
	for i, row := range left {
		if err := s.charge(&s.ctr.HashBuild, 1); err != nil {
			return nil, err
		}
		k := row[key.l]
		ht[k] = append(ht[k], i)
	}
	// The probe phase shards by contiguous probe-side ranges; the table is
	// only read from here on, and concurrent map reads are safe.
	out, err := s.ranged(len(right), n.Partitions, func(a *acct, _, lo, hi int) ([][]int64, error) {
		var out [][]int64
		for _, rrow := range right[lo:hi] {
			if err := a.charge(&a.ctr.HashProbe, 1); err != nil {
				return nil, err
			}
			for _, li := range ht[rrow[key.r]] {
				if !matches(rest, left[li], rrow) {
					continue
				}
				if err := a.charge(&a.ctr.OutputTuple, 1); err != nil {
					return nil, err
				}
				if err := a.chargeRows(1); err != nil {
					return nil, err
				}
				out = append(out, joinRows(left[li], rrow))
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	n.ActualRows = float64(len(out))
	return out, nil
}

func (s *execState) nlJoin(n *plan.Node) ([][]int64, error) {
	left, right, keys, err := s.children(n)
	if err != nil {
		return nil, err
	}
	key, rest := keys[0], keys[1:]
	// Shards are contiguous outer (left) ranges, each scanning the full inner
	// side, which preserves the left-major pair order within and across shards.
	out, err := s.ranged(len(left), n.Partitions, func(a *acct, _, lo, hi int) ([][]int64, error) {
		var out [][]int64
		for _, lrow := range left[lo:hi] {
			lk := lrow[key.l]
			for _, rrow := range right {
				if err := a.charge(&a.ctr.NLPairs, 1); err != nil {
					return nil, err
				}
				if lk == rrow[key.r] && matches(rest, lrow, rrow) {
					if err := a.chargeRows(1); err != nil {
						return nil, err
					}
					out = append(out, joinRows(lrow, rrow))
				}
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	n.ActualRows = float64(len(out))
	return out, nil
}

// mergeJoin is always serial: a partitioned merge provably diverges from the
// serial MergeScan counter (e.g. left={1,5}, right={3,5}: the serial merge
// charges 3 scan steps, any 2-way partition of it charges 2), so Partitions
// is ignored here to preserve serial≡parallel counter identity.
func (s *execState) mergeJoin(n *plan.Node) ([][]int64, error) {
	left, right, keys, err := s.children(n)
	if err != nil {
		return nil, err
	}
	// Charge an n·log n sort cost approximation plus the merge.
	if err := s.charge(&s.ctr.MergeSort, int64(plan.SortUnits(len(left))+plan.SortUnits(len(right)))); err != nil {
		return nil, err
	}
	// Sort and merge on the first condition; pairs of equal runs that fail a
	// later condition emit nothing.
	lc, rc, rest := keys[0].l, keys[0].r, keys[1:]
	sort.Slice(left, func(i, j int) bool { return left[i][lc] < left[j][lc] })
	sort.Slice(right, func(i, j int) bool { return right[i][rc] < right[j][rc] })
	var out [][]int64
	i, j := 0, 0
	for i < len(left) && j < len(right) {
		if err := s.charge(&s.ctr.MergeScan, 1); err != nil {
			return nil, err
		}
		lv, rv := left[i][lc], right[j][rc]
		switch {
		case lv < rv:
			i++
		case lv > rv:
			j++
		default:
			// Emit the cross product of the equal runs.
			jEnd := j
			for jEnd < len(right) && right[jEnd][rc] == rv {
				jEnd++
			}
			for ; i < len(left) && left[i][lc] == lv; i++ {
				for jj := j; jj < jEnd; jj++ {
					if !matches(rest, left[i], right[jj]) {
						continue
					}
					if err := s.charge(&s.ctr.OutputTuple, 1); err != nil {
						return nil, err
					}
					if err := s.chargeRows(1); err != nil {
						return nil, err
					}
					out = append(out, joinRows(left[i], right[jj]))
				}
			}
			j = jEnd
		}
	}
	n.ActualRows = float64(len(out))
	return out, nil
}
