package exec

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"

	"ml4db/internal/mlmath"
	"ml4db/internal/obs"
	"ml4db/internal/sqlkit/catalog"
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
	// *BudgetExceededError. It is read while the execution runs, not
	// copied: leave it unchanged until Execute returns.
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
	// Output is the statement's requested result, applied to the root
	// operator's columns before any row is built (output.go). Nil means every
	// column in leaf order, executor order, no limit. It is only read.
	Output *plan.Output
	// Arena, when non-nil, holds the execution and its Result (see Arena);
	// nil means a fresh arena private to the result.
	Arena *Arena
}

// CountOnly is the Output of callers that read Work, Counters and the
// cardinality (len(Result.Rows)) only: no column is gathered, rows are empty.
var CountOnly = &plan.Output{Limit: plan.NoLimit}

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

// Result is the outcome of executing a plan. With Options.Arena it is the
// arena's, Rows, Actuals and Explain included, until the next execution in it.
type Result struct {
	// Rows holds the output tuples Options.Output asked for: full-capacity
	// rows, aliasing no table data, in Options.Arena or a private arena.
	Rows [][]int64
	// Work is the total deterministic work units consumed.
	Work int64
	// Counters break Work down by operation category.
	Counters Counters
	// Actuals is what each operator measured, one record per node of the
	// executed tree in plan.Actual's pre-order position. An operator a budget
	// abort cut short or never reached reads zero rows; page misses charged
	// before the abort are kept.
	Actuals []plan.Actual
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
	// Metrics receives exec.queries and the exec.work histogram. The first
	// execution that finds it set resolves the two and later ones reuse them:
	// a registry swapped in afterwards is ignored (nil still turns both off).
	Metrics *obs.Registry
	// Clock times operators for EXPLAIN ANALYZE; nil means the system
	// clock. Inject a ManualClock (shared with the Tracer) for
	// deterministic timings.
	Clock mlmath.Clock

	resolve sync.Once
	queries *obs.Counter
	work    *obs.Histogram
	slabs   slabs
}

// New returns an executor over the catalog.
func New(cat *catalog.Catalog) *Executor { return &Executor{Cat: cat} }

// Execute runs the plan and returns the result. The plan is only read: what
// its operators measured comes back in Result.Actuals.
func (e *Executor) Execute(root *plan.Node, opts Options) (*Result, error) {
	a := opts.Arena
	if a == nil {
		a = new(Arena)
		a.taken, a.st.res.Actuals = a.slab[:0], a.few[:]
	}
	st, k := &a.st, root.NumNodes()
	*st = execState{acct: acct{lim: opts.Budget}, e: e, pool: opts.Pool, a: a, res: Result{Actuals: fit(st.res.Actuals, k)}}
	res := &st.res
	observed := opts.Analyze || e.Trace != nil
	if observed {
		if opts.Analyze {
			a.explain = Explain{Root: root, cat: e.Cat, actuals: res.Actuals, stats: fit(a.explain.stats, k)}
			res.Explain = &a.explain
		}
		st.cur = e.Trace.StartSpan("exec.execute", opts.Span)
	}
	need, offs, err := st.resolveOutput(root, opts.Output)
	if err == nil {
		var b batch
		if b, err = st.run(root, 0, need); err == nil {
			res.Rows = st.present(b, opts.Output, offs)
		}
	}
	st.release()
	if opts.Arena == nil { // the result keeps its private arena: drop the hash table
		a.mem = nil
	}
	if res.Explain != nil {
		res.Explain.finish(root, 0)
	}
	if observed {
		st.cur.SetInt("work", st.work).SetInt("rows", int64(len(res.Rows))).End()
	}
	if e.Metrics != nil {
		e.resolve.Do(func() {
			e.queries, e.work = e.Metrics.Counter("exec.queries"), e.Metrics.Histogram("exec.work", workBuckets)
		})
		e.queries.Inc()
		e.work.Observe(float64(st.work))
	}
	res.Work, res.Counters = st.work, st.ctr
	return res, err
}

// fit returns buf's first k values zeroed, or k new ones if it holds fewer.
func fit[T any](buf []T, k int) []T {
	if cap(buf) < k {
		return make([]T, k)
	}
	clear(buf[:k])
	return buf[:k]
}

// acct is one budget account: the counters charged so far, their totals, and
// the limits the totals are held to. The execution owns the live account;
// each shard of a partitioned operator charges a private one that the
// coordinator folds into the live account in shard order (see exchange.go).
type acct struct {
	ctr     Counters
	work    int64
	rows    int64   // tuples materialized by all operators
	skipped int64   // pages disk SeqScans skipped through the zone maps: no work
	lim     *Budget // nil: no limit
}

// Arena is the memory of one execution at a time: its state, Result, scratch
// and rows. Reused (Options.Arena), it lets executions allocate nothing once
// grown to their plans; rows grow to at most maxSlabBytes, larger get their own.
type Arena struct {
	st      execState
	flat    []int64
	rows    [][]int64
	few     [5]plan.Actual // a private arena's Actuals for up to five operators
	explain Explain
	taken   []column // what the execution took from e.slabs; a private arena's is slab
	slab    [16]column
	cols    cuts[column] // batch headers, cut under e.slabs.mu: shards cut theirs
	bools   cuts[bool]
	keys    cuts[keyPair]
	ints    cuts[int]
	mem     []int32 // the hash join table: one is live at a time (see hashJoin)
}

// cuts is a region an execution cuts zeroed pieces from; release drops them.
type cuts[T any] struct {
	buf []T
	n   int
}

// cut returns k zero values, from a larger region if they do not fit.
func (c *cuts[T]) cut(k int) []T {
	if c.n+k > len(c.buf) {
		c.buf, c.n = make([]T, max(2*(len(c.buf)+k), 16)), 0
	}
	c.n += k
	return c.buf[c.n-k : c.n : c.n]
}

func (c *cuts[T]) reset() {
	clear(c.buf[:c.n])
	c.n = 0
}

// execState is one execution's state, kept in its Arena. It reads the
// catalog, the slab free list, the tracer and the clock through e, the budget
// through acct.lim, and res.Explain is its EXPLAIN ANALYZE record.
type execState struct {
	acct        // the live account
	res  Result // what Execute returns
	e    *Executor
	a    *Arena
	// pool runs partitioned operators' shards; nil means inline. Shards take
	// slabs and headers, charge a private acct and touch nothing else here.
	pool *mlmath.Pool
	// probe is what a hash join hands its probe side when that is a SeqScan
	// of a disk table (see children).
	probe keyRange
	cur   *obs.Span // innermost open span, nil on the fast path: parent for the next operator
}

// keyRange is the range [lo, hi] of a hash join's build keys (lo > hi when
// there are none) and where it goes: a filter on column col of the join's
// probe side, the SeqScan of a disk table at pre-order position at (0: none;
// the root is no join's child).
type keyRange struct {
	lo, hi  int64
	col, at int32
}

// charge adds units to the given category counter and the total, enforcing
// the work budget.
func (a *acct) charge(counter *int64, units int64) error {
	*counter += units
	a.work += units
	if b := a.lim; b != nil && b.MaxWork > 0 && a.work > b.MaxWork {
		return &BudgetExceededError{Kind: "work", Limit: b.MaxWork, Used: a.work}
	}
	return nil
}

// chargeRows counts tuples materialized by an operator, enforcing the row
// budget.
func (a *acct) chargeRows(n int64) error {
	a.rows += n
	if b := a.lim; b != nil && b.MaxRows > 0 && a.rows > b.MaxRows {
		return &BudgetExceededError{Kind: "rows", Limit: b.MaxRows, Used: a.rows}
	}
	return nil
}

// run evaluates one plan node into a batch holding the columns marked in
// need, a mask over the node's layout offsets. Marks flow top-down: Execute
// marks what the output reads, each operator adds what its conditions or
// aggregate read before running its inputs. ord is the node's pre-order
// position in the executed tree (see plan.Actual), fixed by the tree's shape
// (plan.Node.ChildAt), not by what has run. The fast path — no EXPLAIN
// ANALYZE, no tracer — pays a single branch per operator.
func (s *execState) run(n *plan.Node, ord int, need []bool) (out batch, err error) {
	if s.res.Explain == nil && s.e.Trace == nil {
		out, err = s.dispatch(n, ord, need)
	} else {
		out, err = s.runObserved(n, ord, need)
	}
	s.res.Actuals[ord].Rows = int64(out.n)
	return out, err
}

// runObserved wraps dispatch with a per-operator span and accumulates the
// node's subtree totals (work, counters, clock time) for EXPLAIN ANALYZE.
func (s *execState) runObserved(n *plan.Node, ord int, need []bool) (batch, error) {
	prev := s.cur
	sp := s.e.Trace.StartSpan(opSpanName(n.Op), prev)
	s.cur = sp
	workBefore, ctrBefore := s.work, s.ctr
	clock := mlmath.ClockOrSystem(s.e.Clock)
	start := clock.Now()
	out, err := s.dispatch(n, ord, need)
	dur := clock.Now().Sub(start)
	if ex := s.res.Explain; ex != nil {
		ex.stats[ord] = OpStats{Loops: 1, SubtreeWork: s.work - workBefore, SubtreeCounters: addCounters(s.ctr, ctrBefore, -1), SubtreeDur: dur}
	}
	sp.SetInt("rows", int64(out.n)).SetInt("work", s.work-workBefore)
	sp.End()
	s.cur = prev
	return out, err
}

func (s *execState) dispatch(n *plan.Node, ord int, need []bool) (batch, error) {
	switch n.Op {
	case plan.OpSeqScan:
		return s.seqScan(n, ord, need)
	case plan.OpIndexScan:
		return s.indexScan(n, ord, need)
	case plan.OpHashJoin:
		return s.hashJoin(n, ord, need)
	case plan.OpNLJoin:
		return s.nlJoin(n, ord, need)
	case plan.OpMergeJoin:
		return s.mergeJoin(n, ord, need)
	case plan.OpHashAgg:
		return s.hashAgg(n, ord, need)
	default:
		return batch{}, fmt.Errorf("exec: unknown operator %v", n.Op)
	}
}

// chargeChunk charges one chunk of an operator loop over n input rows: a unit
// to unit per input row, and per output row a unit to out (if non-nil) and a
// row; at holds the output rows' input ordinals plus base, ascending. If both
// limits hold the whole chunk that is one step; otherwise one trips inside it,
// so the charges replay a unit at a time in row order — the input row, then
// each of its outputs — and stop where a row-at-a-time loop stops. It returns
// how many input rows it charged a unit for.
func chargeChunk[T uint16 | int64](a *acct, unit *int64, n int, out *int64, at []T, base T) (int, error) {
	k, work := int64(len(at)), int64(n)
	if out != nil {
		work += k
	}
	if b := a.lim; b == nil || (b.MaxWork <= 0 || a.work+work <= b.MaxWork) && (b.MaxRows <= 0 || a.rows+k <= b.MaxRows) {
		*unit += int64(n)
		if out != nil {
			*out += k
		}
		a.work += work
		a.rows += k
		return n, nil
	}
	for i := range n {
		if err := a.charge(unit, 1); err != nil {
			return i, err
		}
		for ; len(at) > 0 && int(at[0]-base) == i; at = at[1:] {
			if out != nil {
				if err := a.charge(out, 1); err != nil {
					return i + 1, err
				}
			}
			if err := a.chargeRows(1); err != nil {
				return i + 1, err
			}
		}
	}
	return n, nil
}

// children runs a join's two inputs, asking each for its share of need plus
// the columns the conditions read, and takes the conditions' columns dense
// (keys[0] is the hash or merge key; see joinKeys). A hash join whose probe
// side is a SeqScan of a disk table hands it the range of the build keys as
// one more filter (sideways information passing): it skips the pages whose
// zones miss it and drops the rows outside it, none of which could match.
func (s *execState) children(n *plan.Node, ord int, need []bool) (left, right batch, keys []keyPair, err error) {
	keys, needL, needR, err := s.joinKeys(n, need)
	if err != nil {
		return batch{}, batch{}, nil, err
	}
	if left, err = s.run(n.Children[0], ord+n.ChildAt(0), needL); err != nil {
		return
	}
	for i, k := range keys {
		keys[i].lc = s.dense(left, k.l)
	}
	if p := n.Children[1]; n.Op == plan.OpHashJoin && p.Op == plan.OpSeqScan && s.e.Cat.Table(p.TableID).Disk != nil {
		s.probe = keyRange{lo: math.MaxInt64, hi: math.MinInt64, col: int32(keys[0].r), at: int32(ord + n.ChildAt(1))}
		for _, key := range keys[0].lc {
			s.probe.lo, s.probe.hi = min(s.probe.lo, key), max(s.probe.hi, key)
		}
	}
	if right, err = s.run(n.Children[1], ord+n.ChildAt(1), needR); err != nil {
		return
	}
	for i, k := range keys {
		keys[i].rc = s.dense(right, k.r)
	}
	return left, right, keys, nil
}

// hashOf spreads a join key over 64 bits (Fibonacci hashing): the top bits
// pick its slot, the five below them the slot's tag bit.
func hashOf(key int64) uint64 { return uint64(key) * 0x9E3779B97F4A7C15 }

func (s *execState) hashJoin(n *plan.Node, ord int, need []bool) (batch, error) {
	left, right, keys, err := s.children(n, ord, need)
	if err != nil {
		return batch{}, err
	}
	// Build on the left child, probe with the right, keyed on the first
	// condition; key matches that fail a later condition emit nothing. The
	// table is one allocation: per slot a chain head and a 32-bit Bloom tag on
	// one cache line (heads[2*slot], heads[2*slot+1]), then next[pos]; links
	// are build positions plus one, zero ending a chain. Inserting in
	// descending position makes chains ascend: matches come in build order.
	// Two slots or more keep shift < 64, so & 63 elides its range check. The
	// same loop finds the build keys' range [kmin, kmax].
	lk, rk, rest := keys[0].lc, keys[0].rc, keys[1:]
	shift := uint(64 - bits.Len(uint(max(left.n, 2)-1)))
	slots := 1 << (64 - shift)
	s.a.mem = fit(s.a.mem, 2*slots+left.n)
	heads, next := s.a.mem[:2*slots], s.a.mem[2*slots:]
	kmin, kmax := int64(math.MaxInt64), int64(math.MinInt64)
	for i := left.n - 1; i >= 0; i-- {
		key := lk[i]
		kmin, kmax = min(kmin, key), max(kmax, key)
		h := hashOf(key)
		j := 2 * (h >> (shift & 63))
		next[i], heads[j] = heads[j], int32(i+1)
		heads[j+1] |= 1 << (h >> ((shift - 5) & 63) & 31)
	}
	if _, err := chargeChunk[uint16](&s.acct, &s.ctr.HashBuild, left.n, nil, nil, 0); err != nil {
		return batch{}, err
	}
	// The probe shards by probe-side ranges, a chunk at a time. Pass 1 keeps
	// the ordinals whose key lies in [kmin, kmax] (an empty build keeps none)
	// and pass 2 narrows them by tag bit and walks only the survivors' chains:
	// membership is decided there, so the range is only a pre-filter. Once
	// pass 1 keeps more than half a chunk, the shard's later chunks skip it:
	// there it costs more than the tag tests it saves. One call charges the
	// chunk.
	klo, kspan := uint64(kmin), uint64(kmax)-uint64(kmin)
	pairs, err := s.ranged(right.n, n.Partitions, func(a *acct, _, lo, hi int) (batch, error) {
		li, ri := s.positions(n.EstRows, hi-lo, len(rk))
		var sel [chunkRows]uint16
		useRange := true
		for base := lo; base < hi; base += chunkRows {
			chunk := rk[base:min(base+chunkRows, hi)]
			kept := ordinals[:len(chunk)]
			if len(lk) == 0 {
				kept = nil
			} else if useRange {
				kept = sel[:inRange(&sel, chunk, klo, kspan)]
				useRange = 2*len(kept) <= len(chunk)
			}
			k := tagged(&sel, kept, chunk, heads, shift)
			from := len(ri)
			for _, o := range sel[:k] {
				r, key := base+int(o), chunk[o]
				for p := heads[2*(hashOf(key)>>(shift&63))]; p != 0; p = next[p-1] {
					if l := int(p - 1); lk[l] == key && matches(rest, l, r) {
						li, ri = s.push(li, ri, int64(l), int64(r))
					}
				}
			}
			if _, err := chargeChunk(a, &a.ctr.HashProbe, len(chunk), &a.ctr.OutputTuple, ri[from:], int64(base)); err != nil {
				return batch{}, err
			}
		}
		return batch{n: len(li), cols: append(s.header(2)[:0], li, ri)}, nil
	})
	if err != nil {
		return batch{}, err
	}
	return s.gather(need, left, pairs.cols[0], right, pairs.cols[1]), nil
}

// inRange is the probe's pass 1 and a scan filter's interval test: it writes
// to sel, without a branch, the ordinals of the chunk's keys in [lo, lo+span]
// (see within) and returns how many (k ≤ o: % elides the bounds check). Out of
// line, its loop keeps its state in registers; inlined into the probe closure
// it spilled them, a store and a load per row.
//
//go:noinline
func inRange(sel *[chunkRows]uint16, chunk []int64, lo, span uint64) (k int) {
	for o, key := range chunk {
		sel[uint(k)%chunkRows] = uint16(o)
		k += within(key, lo, span)
	}
	return k
}

// tagged opens pass 2: it writes to sel, without a branch, those of the kept
// ordinals (sel's own, or ordinals) whose key's tag bit is set in its slot (a
// Bloom tag has no false negatives), and returns how many. Out of line for
// inRange's reason.
//
//go:noinline
func tagged(sel *[chunkRows]uint16, kept []uint16, chunk []int64, heads []int32, shift uint) (k int) {
	for _, o := range kept {
		h := hashOf(chunk[o])
		sel[uint(k)%chunkRows] = o
		k += int(uint32(heads[2*(h>>(shift&63))+1]) >> (h >> ((shift - 5) & 63) & 31) & 1)
	}
	return k
}

func (s *execState) nlJoin(n *plan.Node, ord int, need []bool) (batch, error) {
	left, right, keys, err := s.children(n, ord, need)
	if err != nil {
		return batch{}, err
	}
	lk, rk, rest := keys[0].lc, keys[0].rc, keys[1:]
	// Shards are contiguous outer (left) ranges, each scanning the full inner
	// side, which preserves the left-major pair order within and across shards.
	// An outer row's inner matches are found first, then charged in one call:
	// a pair unit per inner row and a row per match, in inner order.
	pairs, err := s.ranged(left.n, n.Partitions, func(a *acct, _, lo, hi int) (batch, error) {
		li, ri := s.positions(n.EstRows, hi-lo, len(lk))
		for l := lo; l < hi; l++ {
			k, first := lk[l], len(ri)
			for r, v := range rk {
				if k == v && matches(rest, l, r) {
					li, ri = s.push(li, ri, int64(l), int64(r))
				}
			}
			if _, err := chargeChunk(a, &a.ctr.NLPairs, len(rk), nil, ri[first:], 0); err != nil {
				return batch{}, err
			}
		}
		return batch{n: len(li), cols: append(s.header(2)[:0], li, ri)}, nil
	})
	if err != nil {
		return batch{}, err
	}
	return s.gather(need, left, pairs.cols[0], right, pairs.cols[1]), nil
}

// sortedBy returns key's row positions, in a slab, in the order sort.Slice
// would put the rows themselves in: the permutation is sorted through the same
// comparison sequence, so equal keys land where they always have
// (plans.golden pins it).
func (s *execState) sortedBy(key column) column {
	perm := s.take(len(key))
	for i := range perm {
		perm[i] = int64(i)
	}
	sort.Slice(perm, func(i, j int) bool { return key[perm[i]] < key[perm[j]] })
	return perm
}

// mergeJoin is always serial: a partitioned merge provably diverges from the
// serial MergeScan counter (e.g. left={1,5}, right={3,5}: the serial merge
// charges 3 scan steps, any 2-way partition of it charges 2), so Partitions
// is ignored here to preserve serial≡parallel counter identity.
func (s *execState) mergeJoin(n *plan.Node, ord int, need []bool) (batch, error) {
	left, right, keys, err := s.children(n, ord, need)
	if err != nil {
		return batch{}, err
	}
	if err := s.charge(&s.ctr.MergeSort, int64(plan.SortUnits(left.n)+plan.SortUnits(right.n))); err != nil {
		return batch{}, err
	}
	// Sort and merge on the first condition; pairs of equal runs that fail a
	// later condition emit nothing.
	lk, rk, rest := keys[0].lc, keys[0].rc, keys[1:]
	lp, rp := s.sortedBy(lk), s.sortedBy(rk)
	li, ri := s.positions(n.EstRows, left.n, left.n)
	i, j := 0, 0
	for i < len(lp) && j < len(rp) {
		if err := s.charge(&s.ctr.MergeScan, 1); err != nil {
			return batch{}, err
		}
		lv, rv := lk[lp[i]], rk[rp[j]]
		switch {
		case lv < rv:
			i++
		case lv > rv:
			j++
		default:
			// Emit the cross product of the equal runs.
			jEnd := j
			for jEnd < len(rp) && rk[rp[jEnd]] == rv {
				jEnd++
			}
			for ; i < len(lp) && lk[lp[i]] == lv; i++ {
				for _, r := range rp[j:jEnd] {
					if !matches(rest, int(lp[i]), int(r)) {
						continue
					}
					if _, err := chargeChunk(&s.acct, &s.ctr.OutputTuple, 1, nil, ordinals[:1], 0); err != nil {
						return batch{}, err
					}
					li, ri = s.push(li, ri, lp[i], r)
				}
			}
			j = jEnd
		}
	}
	return s.gather(need, left, li, right, ri), nil
}
