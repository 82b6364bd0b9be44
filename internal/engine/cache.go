package engine

import (
	"cmp"
	"container/list"
	"slices"
	"strconv"
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

// cached is a plan-cache entry: the plan, and the rewritten query it was
// built from with the rewrite's position map — both nil when no rewriter
// applied and the plan was built from the caller's query. All read-only.
type cached struct {
	plan      *plan.Node
	rewritten *plan.Query
	posMap    []plan.PosMap
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
	// Sorting and rendering happen in stack arrays: a table's filters and
	// the join list only reach the heap past 16 entries, the text past 512
	// bytes (a 7-table star's is under 200), so the string is the one
	// allocation.
	var predBuf [16]expr.Pred
	var joinBuf [16]expr.JoinCond
	var textBuf [512]byte
	b := append(textBuf[:0], 'h')
	b = append(b, hintName...)
	for pos, tid := range q.Tables {
		b = append(b, "|T"...)
		b = strconv.AppendInt(b, int64(tid), 10)
		preds := append(predBuf[:0], q.Filters[pos]...)
		slices.SortFunc(preds, predCmp)
		for _, p := range preds {
			b = p.AppendTo(append(b, ':'))
		}
	}
	joins := joinBuf[:0]
	for _, j := range q.Joins {
		// Orient each condition smaller side first; equality is symmetric.
		if j.RightTable < j.LeftTable || (j.RightTable == j.LeftTable && j.RightCol < j.LeftCol) {
			j = j.Flip()
		}
		joins = append(joins, j)
	}
	slices.SortFunc(joins, joinCmp)
	for _, j := range joins {
		b = j.AppendTo(append(b, '|'))
	}
	if q.Agg != nil {
		b = appendCol(append(b, "|G"...), q.Agg.GroupTable, q.Agg.GroupCol)
		for _, sc := range q.Agg.Sums {
			b = appendCol(append(b, "|S"...), sc.Table, sc.Col)
		}
	}
	return string(b)
}

// appendCol appends "<table>.c<col>".
func appendCol(b []byte, table, col int) []byte {
	b = strconv.AppendInt(b, int64(table), 10)
	return strconv.AppendInt(append(b, ".c"...), int64(col), 10)
}

func predCmp(a, b expr.Pred) int {
	return cmp.Or(cmp.Compare(a.Col, b.Col), cmp.Compare(a.Op, b.Op), cmp.Compare(a.Lo, b.Lo), cmp.Compare(a.Hi, b.Hi))
}

func joinCmp(a, b expr.JoinCond) int {
	return cmp.Or(cmp.Compare(a.LeftTable, b.LeftTable), cmp.Compare(a.LeftCol, b.LeftCol),
		cmp.Compare(a.RightTable, b.RightTable), cmp.Compare(a.RightCol, b.RightCol))
}

// lru is a mutex-guarded least-recently-used map of at most capacity entries,
// shared by all sessions of an engine. The engine keeps two: the plan cache
// (cacheKey → cached plan) and the statement memo (stmtKey → *stmt). Values are
// stored and served as they are, not copied: both kinds are read-only once
// built (the executor returns what it measured instead of writing it into
// the plan's nodes), so any number of sessions use one value at once.
type lru[K comparable, V any] struct {
	capacity int
	// <prefix>.hits/misses/evictions/invalidations, resolved once (nil
	// without a registry): counting is a field bump, so it happens inside
	// the critical sections.
	hits, misses, evictions, invalidations *obs.Counter

	mu    sync.Mutex
	ll    *list.List // front = most recently used; values *lruEntry[K, V]
	byKey map[K]*list.Element
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

// newLRU returns an empty cache of capacity entries counting into the
// metrics named prefix + ".hits" and so on.
func newLRU[K comparable, V any](capacity int, metrics *obs.Registry, prefix string) *lru[K, V] {
	return &lru[K, V]{
		capacity:      capacity,
		hits:          metrics.Counter(prefix + ".hits"),
		misses:        metrics.Counter(prefix + ".misses"),
		evictions:     metrics.Counter(prefix + ".evictions"),
		invalidations: metrics.Counter(prefix + ".invalidations"),
		ll:            list.New(),
		byKey:         make(map[K]*list.Element, capacity),
	}
}

// Get returns the value cached under key — the stored value, not a copy —
// promoting the entry to most recently used.
func (c *lru[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses.Inc()
		var zero V
		return zero, false
	}
	c.hits.Inc()
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// Put stores v under key, evicting the least recently used entry past
// capacity. Re-putting an existing key refreshes its recency but keeps the
// first value (both were built from identical inputs). A full cache's Put
// allocates nothing: the evicted entry's element and record take the new pair.
func (c *lru[K, V]) Put(key K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		return
	}
	if el := c.ll.Back(); el != nil && c.ll.Len() >= c.capacity {
		e := el.Value.(*lruEntry[K, V])
		delete(c.byKey, e.key)
		e.key, e.val = key, v
		c.ll.MoveToFront(el)
		c.byKey[key] = el
		c.evictions.Inc()
		return
	}
	c.byKey[key] = c.ll.PushFront(&lruEntry[K, V]{key: key, val: v})
}

// Invalidate drops every entry, returning how many were dropped.
func (c *lru[K, V]) Invalidate() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.ll.Len()
	c.ll.Init()
	c.byKey = make(map[K]*list.Element, c.capacity)
	c.invalidations.Add(int64(n))
	return n
}

// Len returns the number of cached entries.
func (c *lru[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
