package engine

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"ml4db/internal/mlmath"
	"ml4db/internal/obs"
	"ml4db/internal/querystore"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/exec"
	"ml4db/internal/sqlkit/optimizer"
	"ml4db/internal/sqlkit/plan"
)

// ErrOverloaded is the admission-control sentinel: the engine is already
// running its maximum number of concurrent sessions and rejected the query
// instead of queueing it. Rejections surface as *OverloadedError, which
// matches this sentinel under errors.Is.
var ErrOverloaded = errors.New("engine: overloaded")

// OverloadedError reports an admission rejection with the concurrency limit
// that was saturated at the time.
type OverloadedError struct {
	Limit int
}

// Error implements error.
func (e *OverloadedError) Error() string {
	return fmt.Sprintf("engine: overloaded (%d sessions already active)", e.Limit)
}

// Is reports admission rejections as ErrOverloaded for errors.Is callers.
func (e *OverloadedError) Is(target error) bool { return target == ErrOverloaded }

const (
	// maxConcurrent bounds the number of sessions executing at once; further
	// arrivals are rejected with ErrOverloaded.
	maxConcurrent = 8
	// cacheSize bounds the shared plan cache and the statement memo, each in
	// entries.
	cacheSize = 256
)

// Options configures an Engine.
type Options struct {
	// Metrics, when non-nil, receives the engine.* instruments.
	Metrics *obs.Registry
	// Trace, when non-nil, wraps each query in an engine.query span.
	Trace *obs.Tracer
	// Store, when non-nil, receives one querystore.Observation per executed
	// query (keyed by the plan cache's normalized statement shape) and a
	// model event per estimator install, and New registers the sys_* system
	// views over it in the catalog. A nil store is off and free.
	Store *querystore.Store
	// Pool, when non-nil, runs partitioned operators' shards in parallel and
	// sets the initial parallelism degree to its worker count (see
	// SetParallelism). Executions are bit-identical with or without a pool;
	// only latency changes.
	Pool *mlmath.Pool
}

// Result is the outcome of one engine query. Session.Run's and Engine.Run's
// belong to the caller; a Session.Query's belongs to the session and is
// overwritten by its next Query (see RowsResult).
type Result struct {
	*exec.Result
	// Plan is the executed physical plan. It is the plan cache's own tree,
	// shared with every session running the statement: read-only. What this
	// execution measured per operator is Result.Actuals; Clone before editing.
	Plan *plan.Node
	// CacheHit reports whether the plan came from the shared plan cache.
	CacheHit bool
	// Fallback reports that the learned estimator could not serve this
	// statement and the plan was built from the classical estimates.
	Fallback bool
	// EstimatorVersion is the learned-estimator version the plan was built
	// under (0 when planning was classical).
	EstimatorVersion int
	// Query is the query the plan was actually built from — the input after
	// view rewriting, or the input itself when no rewriter applied. A
	// rewritten query is the plan cache's, shared like Plan; for
	// Session.Query the input is the statement memo's, shared by every call
	// that sends the same text. Either way it is read-only.
	Query *plan.Query
	// PosMap maps each input table position to its (position, column offset)
	// in Query. Nil means identity: no rewriter applied. Read-only: it is the
	// plan cache's.
	PosMap []plan.PosMap
}

// Engine is the concurrent query front end: admission control, a shared plan
// cache, per-query budgets, and learned-estimator fallback over one catalog.
//
// The engine spawns no goroutines; each session runs on its caller. All
// methods are safe for concurrent use.
type Engine struct {
	cat  *catalog.Catalog
	exc  *exec.Executor
	opts Options

	// slots is the admission semaphore: one token per running session.
	slots chan struct{}
	cache *lru[cacheKey, cached]
	// stmts is the statement memo Session.Query consults before parsing.
	stmts *lru[stmtKey, *stmt]

	// cur is what the next query plans under: readers load it once, writers
	// publish a new one through update.
	cur atomic.Pointer[planning]

	// The engine.* instruments, resolved once in New (nil without Metrics).
	admitted, rejected, planErrors, fallbacks, budgetAborts *obs.Counter
	statsRefreshes, designChanges, estimatorInstalls        *obs.Counter
	active                                                  *obs.Gauge
}

// planning is one immutable snapshot of everything a planning pass reads. A
// query loads it once, so it never sees half of a mutation; a published
// snapshot is never written again.
type planning struct {
	// epoch counts the mutations that make existing plans stale (statistics,
	// estimator, physical design, rewriters). It is part of the cache key.
	epoch      uint64
	estVersion int                     // 0: classical only
	learned    optimizer.CardEstimator // nil: classical only
	rewriters  []plan.QueryRewriter
	// classical is the histogram-path optimizer every pass shares (Plan only
	// reads it); its Parallelism is the engine's degree.
	classical *optimizer.Optimizer
}

// New builds an engine over the catalog. The catalog should already be
// analyzed (AnalyzeAll); RefreshStats re-analyzes later. With a workload
// store configured, New registers the querystore sys_* system views in the
// catalog; a non-virtual table squatting on a sys_ name is a construction
// bug and panics.
func New(cat *catalog.Catalog, opts Options) *Engine {
	if opts.Store != nil {
		if err := querystore.RegisterViews(cat, opts.Store); err != nil {
			//ml4db:allow nakedpanic "construction-time misconfiguration, same contract as catalog.MustAdd"
			panic(err)
		}
	}
	m := opts.Metrics
	e := &Engine{
		cat:   cat,
		exc:   exec.New(cat),
		opts:  opts,
		slots: make(chan struct{}, maxConcurrent),
		cache: newLRU[cacheKey, cached](cacheSize, m, "engine.plancache"),
		stmts: newLRU[stmtKey, *stmt](cacheSize, m, "engine.stmtcache"),

		admitted:          m.Counter("engine.admitted"),
		rejected:          m.Counter("engine.rejected"),
		planErrors:        m.Counter("engine.plan_errors"),
		fallbacks:         m.Counter("engine.fallbacks"),
		budgetAborts:      m.Counter("engine.budget_aborts"),
		statsRefreshes:    m.Counter("engine.stats_refreshes"),
		designChanges:     m.Counter("engine.design_changes"),
		estimatorInstalls: m.Counter("engine.estimator_installs"),
		active:            m.Gauge("engine.active"),
	}
	e.exc.Trace = opts.Trace
	e.exc.Metrics = m
	classical := optimizer.New(cat)
	classical.Parallelism = opts.Pool.Workers() // nil pool reports 1: serial
	e.cur.Store(&planning{classical: classical})
	return e
}

// update is the one writer of the planning snapshot: it publishes a copy
// with change applied, retrying if another writer got in between (so change
// may run twice and must only assign fields). stale — every mutation but a
// parallelism switch — means no plan built so far may be served again: the
// epoch moves, here and nowhere else, and both caches are dropped. For the
// plan cache the drop only frees memory early (the epoch in its key already
// makes every entry unreachable); the statement memo has no epoch in its key,
// so the drop is what makes a text parse again against a changed catalog.
func (e *Engine) update(stale bool, event *obs.Counter, change func(*planning)) {
	for published := false; !published; {
		old := e.cur.Load()
		next := *old
		change(&next)
		if stale {
			next.epoch++
		}
		published = e.cur.CompareAndSwap(old, &next)
	}
	if stale {
		e.cache.Invalidate()
		e.stmts.Invalidate()
	}
	event.Inc()
}

// Catalog returns the engine's catalog.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// EstimatorVersion returns the installed learned-estimator version (zero
// when none is installed).
func (e *Engine) EstimatorVersion() int { return e.cur.Load().estVersion }

// CachedPlans returns the number of plans currently cached.
func (e *Engine) CachedPlans() int { return e.cache.Len() }

// Parallelism returns the current parallelism degree the optimizer costs the
// Partitions knob with (1 = serial planning).
func (e *Engine) Parallelism() int { return e.cur.Load().classical.Parallelism }

// SetParallelism changes the parallelism degree for subsequent planning.
// Values below one clamp to one. The epoch does not move and nothing is
// invalidated: the degree is its own cache-key component (see cacheKey).
func (e *Engine) SetParallelism(p int) {
	e.update(false, nil, func(s *planning) {
		classical := *s.classical
		classical.Parallelism = max(p, 1)
		s.classical = &classical
	})
}

// Quiesce runs fn with the engine drained: every admission slot is held, so
// no session is planning or executing while fn mutates shared state — the
// catalog, indexes, or rewriters. It blocks until in-flight sessions finish;
// admissions arriving meanwhile are rejected with ErrOverloaded. fn must not
// run queries through this engine (they would be rejected) and must pair any
// physical mutation with NotifyDesignChange or RefreshStats so cached plans
// over the old design become unreachable.
func (e *Engine) Quiesce(fn func()) {
	for i := 0; i < cap(e.slots); i++ {
		e.slots <- struct{}{}
	}
	defer func() {
		for i := 0; i < cap(e.slots); i++ {
			<-e.slots
		}
	}()
	fn()
}

// RefreshStats re-analyzes every table (a database-wide ANALYZE), moves the
// epoch, and invalidates the plan cache: no plan built against the old
// statistics can be served afterwards.
//
// The refresh quiesces the engine first (see Quiesce), so statistics never
// change under a session that is planning or executing.
func (e *Engine) RefreshStats(buckets, sampleSize int) {
	e.Quiesce(func() {
		e.cat.AnalyzeAll(buckets, sampleSize)
		e.update(true, e.statsRefreshes, func(*planning) {})
	})
}

// NotifyDesignChange records a physical-design mutation — an index built or
// dropped, a view table filled or emptied: it moves the epoch, making every
// cached plan key unreachable, and drops the cache. Callers mutating the
// catalog of a live engine must do so under Quiesce and call this before
// releasing it.
func (e *Engine) NotifyDesignChange() {
	e.update(true, e.designChanges, func(*planning) {})
}

// SetRewriters installs the query rewriters applied, in order, before
// planning — materialized views substituting for join pairs. Installing
// counts as a design change (the same statement now plans to a different
// tree), so the epoch moves and the plan cache is invalidated.
func (e *Engine) SetRewriters(rs []plan.QueryRewriter) {
	rs = append([]plan.QueryRewriter(nil), rs...)
	e.update(true, e.designChanges, func(s *planning) { s.rewriters = rs })
}

// SetEstimator installs (or, with a nil estimator, removes) the learned
// cardinality estimator under the given deployment version, moves the epoch
// and invalidates the plan cache — also when the version is the one already
// installed. Version zero always means "classical only"; installing an
// estimator requires a nonzero version.
func (e *Engine) SetEstimator(est optimizer.CardEstimator, version int) error {
	if est != nil && version == 0 {
		return fmt.Errorf("engine: learned estimator requires a nonzero version")
	}
	if est == nil {
		version = 0
	}
	e.update(true, e.estimatorInstalls, func(s *planning) { s.learned, s.estVersion = est, version })
	e.opts.Store.RecordModelInstall(version)
	return nil
}

// Session returns a new session with the default hint set and no budget.
// Sessions are lightweight; create one per logical client.
func (e *Engine) Session() *Session {
	return &Session{eng: e, Hint: optimizer.NoHint()}
}

// Run executes q with the default hint set, no budget, and no EXPLAIN — the
// one-shot convenience over Session.
func (e *Engine) Run(q *plan.Query) (*Result, error) { return e.Session().Run(q) }

// admit takes an admission slot, or rejects the query with *OverloadedError.
// Every admitted query calls release once it is done.
func (e *Engine) admit() error {
	select {
	case e.slots <- struct{}{}:
	default:
		e.rejected.Inc()
		return &OverloadedError{Limit: cap(e.slots)}
	}
	e.admitted.Inc()
	e.active.Set(float64(len(e.slots)))
	return nil
}

func (e *Engine) release() {
	e.active.Set(float64(len(e.slots) - 1))
	<-e.slots
}

// run is the one query path of an admitted query: plan (through the cache),
// execute, record. shape is queryShape(q, hint.Name), computed by the caller
// (or remembered: see Session.Query). It is computed from the caller's query,
// so one statement keeps one identity (and one querystore record) across
// design changes; the plan is built from the rewritten query, which the cache
// keeps with it. Rewriters only change together with an epoch bump, so a
// cached rewrite under this key is always this query's. out, when non-nil, is
// the statement's requested output over q's table positions; it rides along
// to the executor and is no part of the plan's or the statement's identity.
// mem, when non-nil, is the memory the query runs in and its Result is
// returned in (Session.Query's); nil gives the result memory of its own.
func (e *Engine) run(q *plan.Query, shape string, out *plan.Output, mem *queryMem, hint optimizer.HintSet, budget *exec.Budget, analyze bool) (*Result, error) {
	sp := e.opts.Trace.StartSpan("engine.query", nil)
	defer sp.End()

	s := e.cur.Load() // the one read of mutable planning state in this query
	key := cacheKey{epoch: s.epoch, parallelism: s.classical.Parallelism, hint: hintBitsOf(hint), shape: shape}
	c, hit := e.cache.Get(key)
	fallback := false
	if !hit {
		exq, posMap := applyRewriters(q, s.rewriters)
		p, fb, err := e.plan(s, exq, hint)
		if err != nil {
			e.planErrors.Inc()
			return nil, err
		}
		if fallback = fb; fallback {
			e.fallbacks.Inc()
		}
		c = cached{plan: p, posMap: posMap}
		if posMap != nil {
			c.rewritten = exq
		}
		e.cache.Put(key, c)
	}
	p, exq, posMap := c.plan, q, c.posMap
	if posMap != nil {
		exq = c.rewritten
	}
	sp.SetStr("hint", hint.Name).SetInt("cache_hit", boolInt(hit))

	opts := exec.Options{Budget: budget, Analyze: analyze, Span: sp, Pool: e.opts.Pool}
	var result *Result
	var mapped *plan.Output
	if mem == nil {
		result = new(Result)
	} else {
		result, opts.Arena, mapped = &mem.res, &mem.arena, &mem.mapped
	}
	opts.Output = mapOutput(mapped, out, posMap)
	res, err := e.exc.Execute(p, opts)
	*result = Result{Result: res, Plan: p, CacheHit: hit, Fallback: fallback, EstimatorVersion: s.estVersion, Query: exq, PosMap: posMap}
	budgetAbort := err != nil && errors.Is(err, exec.ErrWorkBudgetExceeded)
	if budgetAbort {
		e.budgetAborts.Inc()
	}
	if st := e.opts.Store; st != nil && (err == nil || budgetAbort) {
		o := querystore.Observation{
			Shape:            shape,
			Query:            q,
			CacheHit:         hit,
			Fallback:         fallback,
			BudgetAbort:      budgetAbort,
			EstimatorVersion: s.estVersion,
			Plan:             p,
			Actuals:          res.Actuals,
			Work:             res.Work,
			PageMisses:       res.Counters.PageMiss,
		}
		if err == nil {
			// The statement's cardinality is the root operator's, whatever
			// LIMIT or select list this one execution asked for.
			o.Rows = res.Actuals[0].Rows
		}
		st.Record(o)
	}
	return result, err
}

// mapOutput routes a requested output through a view rewrite's position map
// into dst, reusing its slices (nil: a new output): a rewrite may have folded
// several FROM tables into one wider view table, and the plan names columns by
// the rewritten query's positions. Without a rewrite it returns out itself.
func mapOutput(dst, out *plan.Output, posMap []plan.PosMap) *plan.Output {
	if out == nil || posMap == nil {
		return out
	}
	if dst == nil {
		dst = new(plan.Output)
	}
	via := func(c plan.AggCol) plan.AggCol {
		pm := posMap[c.Table]
		return plan.AggCol{Table: pm.Pos, Col: pm.ColShift + c.Col}
	}
	dst.Cols, dst.OrderBy, dst.Limit = dst.Cols[:0], dst.OrderBy[:0], out.Limit
	for _, c := range out.Cols {
		dst.Cols = append(dst.Cols, via(c))
	}
	for _, k := range out.OrderBy {
		dst.OrderBy = append(dst.OrderBy, plan.OrderKey{Col: via(k.Col), Desc: k.Desc})
	}
	return dst
}

// plan builds a plan for q under hint and the snapshot s: one join-order
// search over one table of estimates. With a learned estimator installed the
// table is the learned one if every entry of it is usable; otherwise
// (fallback=true) it is the classical table, and the plan is exactly the one a
// classical engine builds. A learned component's failure never becomes a
// query failure.
func (e *Engine) plan(s *planning, q *plan.Query, hint optimizer.HintSet) (p *plan.Node, fallback bool, err error) {
	if err := optimizer.CheckJoins(q); err != nil {
		return nil, false, err
	}
	est, ok := optimizer.Estimates{}, false
	if s.learned != nil {
		// Asking stops at the first answer that is not a finite,
		// non-negative number: the learned model cannot serve q.
		est, ok = optimizer.Estimate(s.learned, q, func(v float64) bool {
			return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0
		})
		fallback = !ok
	}
	if !ok {
		est, _ = optimizer.Estimate(s.classical.Est, q, nil)
	}
	p, err = s.classical.PlanWith(q, hint, est)
	return p, fallback, err
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
