package engine

import (
	"cmp"
	"container/list"
	"fmt"
	"slices"
	"strings"
	"sync"

	"ml4db/internal/obs"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/optimizer"
	"ml4db/internal/sqlkit/plan"
)

// cacheKey is the identity of a planning problem, used directly as the map
// key: no key string is built. The epoch makes every entry planned against
// stale statistics, a superseded estimator, or a changed physical design
// unreachable without scanning the cache. The parallelism degree the plan's
// Partitions knob was costed with sits beside the epoch, not inside it: it is
// the one planning input whose old plans stay valid (executions are
// bit-identical across degrees), so entries for a prior degree are hit again
// when the degree switches back. shape is queryShape's normalized statement;
// it carries the hint set's name, which is only a label, so hint holds what
// the hint set means to the search.
type cacheKey struct {
	epoch       uint64
	parallelism int
	hint        hintBits
	shape       string
}

// hintBits is everything of a HintSet the optimizer reads: one bit per entry
// of plan.AllJoinOps it allows, then LeftDeepOnly and NoIndexScan. Two hint
// sets with equal bits define the same search space whatever they are called.
type hintBits uint8

func hintBitsOf(h optimizer.HintSet) hintBits {
	var b hintBits
	for i, op := range plan.AllJoinOps {
		if h.Allows(op) {
			b |= 1 << i
		}
	}
	if h.LeftDeepOnly {
		b |= 1 << len(plan.AllJoinOps)
	}
	if h.NoIndexScan {
		b |= 1 << (len(plan.AllJoinOps) + 1)
	}
	return b
}

// applyRewriters folds q through each rewriter once, in order, composing the
// per-position maps. The returned query is q itself — and the map nil,
// meaning identity — when nothing applied. View-substitution rewriters do not
// remap aggregation specs, so aggregating queries keep their original tables.
func applyRewriters(q *plan.Query, rs []plan.QueryRewriter) (*plan.Query, []plan.PosMap) {
	if q.Agg != nil {
		return q, nil
	}
	cur := q
	var m []plan.PosMap
	for _, r := range rs {
		nq, step, ok := r.RewriteMapped(cur)
		if !ok {
			continue
		}
		if m == nil {
			m = step
		} else {
			for i := range m {
				s := step[m[i].Pos]
				m[i] = plan.PosMap{Pos: s.Pos, ColShift: s.ColShift + m[i].ColShift}
			}
		}
		cur = nq
	}
	return cur, m
}

// queryShape renders the epoch-independent normalized statement identity:
// the query's tables, filters (literals included), and join conditions in a
// normalized order, plus the hint-set name.
//
// Normalization makes the shape insensitive to the incidental order in which
// filters and joins were added — two spellings of the same query share one
// shape, one plan-cache entry, and one querystore statement record.
func queryShape(q *plan.Query, hintName string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "h%s", hintName)
	for pos, tid := range q.Tables {
		fmt.Fprintf(&b, "|T%d", tid)
		preds := slices.Clone(q.Filters[pos])
		slices.SortFunc(preds, predCmp)
		for _, p := range preds {
			fmt.Fprintf(&b, ":%s", p)
		}
	}
	joins := make([]expr.JoinCond, len(q.Joins))
	for i, j := range q.Joins {
		// Orient each condition smaller side first; equality is symmetric.
		if j.RightTable < j.LeftTable || (j.RightTable == j.LeftTable && j.RightCol < j.LeftCol) {
			j = j.Flip()
		}
		joins[i] = j
	}
	slices.SortFunc(joins, joinCmp)
	for _, j := range joins {
		fmt.Fprintf(&b, "|%s", j)
	}
	if q.Agg != nil {
		fmt.Fprintf(&b, "|G%d.c%d", q.Agg.GroupTable, q.Agg.GroupCol)
		for _, sc := range q.Agg.Sums {
			fmt.Fprintf(&b, "|S%d.c%d", sc.Table, sc.Col)
		}
	}
	return b.String()
}

func predCmp(a, b expr.Pred) int {
	return cmp.Or(cmp.Compare(a.Col, b.Col), cmp.Compare(a.Op, b.Op), cmp.Compare(a.Lo, b.Lo), cmp.Compare(a.Hi, b.Hi))
}

func joinCmp(a, b expr.JoinCond) int {
	return cmp.Or(cmp.Compare(a.LeftTable, b.LeftTable), cmp.Compare(a.LeftCol, b.LeftCol),
		cmp.Compare(a.RightTable, b.RightTable), cmp.Compare(a.RightCol, b.RightCol))
}

// cacheEntry is one cached plan under its full key.
type cacheEntry struct {
	key  cacheKey
	plan *plan.Node
}

// planCache is a mutex-guarded LRU of optimized plans shared by all sessions
// of an engine. It stores and serves the planner's tree itself: a plan is
// read-only once built (the executor returns what it measured instead of
// writing it into the nodes), so any number of sessions run one tree at once.
type planCache struct {
	capacity int
	// engine.plancache.* counters, resolved once (nil without a registry):
	// counting is a field bump, so it happens inside the critical sections.
	hits, misses, evictions, invalidations *obs.Counter

	mu    sync.Mutex
	ll    *list.List                 // front = most recently used
	byKey map[cacheKey]*list.Element // element value: *cacheEntry
}

func newPlanCache(capacity int, metrics *obs.Registry) *planCache {
	if capacity < 1 {
		capacity = 256
	}
	return &planCache{
		capacity:      capacity,
		hits:          metrics.Counter("engine.plancache.hits"),
		misses:        metrics.Counter("engine.plancache.misses"),
		evictions:     metrics.Counter("engine.plancache.evictions"),
		invalidations: metrics.Counter("engine.plancache.invalidations"),
		ll:            list.New(),
		byKey:         make(map[cacheKey]*list.Element, capacity),
	}
}

// Get returns the cached plan for key — the stored tree, not a copy —
// promoting the entry to most recently used.
func (c *planCache) Get(key cacheKey) (*plan.Node, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.hits.Inc()
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).plan, true
}

// Put stores the plan under key, evicting the least recently used entry past
// capacity. Re-putting an existing key refreshes its recency but keeps the
// first plan (both were built from identical inputs).
func (c *planCache) Put(key cacheKey, p *plan.Node) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[key] = c.ll.PushFront(&cacheEntry{key: key, plan: p})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry).key)
		c.evictions.Inc()
	}
}

// Invalidate drops every entry, returning how many were dropped. An epoch
// bump already makes stale keys unreachable; dropping them too frees the
// memory immediately instead of waiting for LRU pressure.
func (c *planCache) Invalidate() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.ll.Len()
	c.ll.Init()
	c.byKey = make(map[cacheKey]*list.Element, c.capacity)
	c.invalidations.Add(int64(n))
	return n
}

// Len returns the number of cached plans.
func (c *planCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
