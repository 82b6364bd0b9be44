package engine

import (
	"container/list"
	"fmt"
	"sort"
	"strings"
	"sync"

	"ml4db/internal/obs"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/plan"
)

// cacheKey renders the canonical identity of a planning problem: the
// normalized query shape plus the statistics, estimator, and physical-design
// versions the plan would be built against, and the parallelism degree the
// optimizer would cost the Partitions knob with. The version prefix makes
// every entry planned against stale statistics, a superseded estimator, or a
// changed physical design (an index built or dropped, a view installed)
// unreachable without scanning the cache; the parallelism component keeps a
// plan partitioned for one degree from being served at another (and lets
// entries for a prior degree become reachable again when the knob switches
// back — no invalidation needed, since executions are bit-identical across
// degrees and only the costing differs).
func cacheKey(shape string, statsVersion, estimatorVersion, designVersion, parallelism int) string {
	return fmt.Sprintf("s%d/e%d/d%d/p%d/%s", statsVersion, estimatorVersion, designVersion, parallelism, shape)
}

// applyRewriters folds q through each rewriter once, in order, composing the
// per-position maps. The returned query is q itself — and the map nil,
// meaning identity — when nothing applied.
func applyRewriters(q *plan.Query, rs []plan.QueryRewriter) (*plan.Query, []plan.PosMap) {
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

// queryShape renders the version-independent normalized statement identity:
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
		preds := append([]expr.Pred(nil), q.Filters[pos]...)
		sort.Slice(preds, func(i, j int) bool { return predLess(preds[i], preds[j]) })
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
	sort.Slice(joins, func(i, j int) bool { return joinLess(joins[i], joins[j]) })
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

func predLess(a, b expr.Pred) bool {
	if a.Col != b.Col {
		return a.Col < b.Col
	}
	if a.Op != b.Op {
		return a.Op < b.Op
	}
	if a.Lo != b.Lo {
		return a.Lo < b.Lo
	}
	return a.Hi < b.Hi
}

func joinLess(a, b expr.JoinCond) bool {
	if a.LeftTable != b.LeftTable {
		return a.LeftTable < b.LeftTable
	}
	if a.LeftCol != b.LeftCol {
		return a.LeftCol < b.LeftCol
	}
	if a.RightTable != b.RightTable {
		return a.RightTable < b.RightTable
	}
	return a.RightCol < b.RightCol
}

// cacheEntry is one cached plan under its full key.
type cacheEntry struct {
	key  string
	plan *plan.Node
}

// planCache is a mutex-guarded LRU of optimized plans shared by all sessions
// of an engine. Plans are stored and served as deep clones: the executor
// mutates ActualRows annotations in place, so handing the stored tree to two
// concurrent sessions would race.
type planCache struct {
	capacity int
	metrics  *obs.Registry // nil-safe; counters under engine.plancache.*

	mu    sync.Mutex
	ll    *list.List               // front = most recently used
	byKey map[string]*list.Element // element value: *cacheEntry
}

func newPlanCache(capacity int, metrics *obs.Registry) *planCache {
	if capacity < 1 {
		capacity = 256
	}
	return &planCache{
		capacity: capacity,
		metrics:  metrics,
		ll:       list.New(),
		byKey:    make(map[string]*list.Element, capacity),
	}
}

// Get returns a deep clone of the cached plan for key, promoting the entry
// to most recently used.
func (c *planCache) Get(key string) (*plan.Node, bool) {
	c.mu.Lock()
	el, ok := c.byKey[key]
	if !ok {
		c.mu.Unlock()
		c.metrics.Counter("engine.plancache.misses").Inc()
		return nil, false
	}
	c.ll.MoveToFront(el)
	p := el.Value.(*cacheEntry).plan.Clone()
	c.mu.Unlock()
	c.metrics.Counter("engine.plancache.hits").Inc()
	return p, true
}

// Put stores a deep clone of the plan under key, evicting the least recently
// used entry past capacity. Re-putting an existing key refreshes its
// recency but keeps the first plan (both were built from identical inputs).
func (c *planCache) Put(key string, p *plan.Node) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		return
	}
	c.byKey[key] = c.ll.PushFront(&cacheEntry{key: key, plan: p.Clone()})
	evicted := 0
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry).key)
		evicted++
	}
	c.mu.Unlock()
	if evicted > 0 {
		c.metrics.Counter("engine.plancache.evictions").Add(int64(evicted))
	}
}

// Invalidate drops every entry, returning how many were dropped. Version
// bumps already make stale keys unreachable; dropping them too frees the
// memory immediately instead of waiting for LRU pressure.
func (c *planCache) Invalidate() int {
	c.mu.Lock()
	n := c.ll.Len()
	c.ll.Init()
	c.byKey = make(map[string]*list.Element, c.capacity)
	c.mu.Unlock()
	if n > 0 {
		c.metrics.Counter("engine.plancache.invalidations").Add(int64(n))
	}
	return n
}

// Len returns the number of cached plans.
func (c *planCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
