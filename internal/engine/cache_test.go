package engine

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"ml4db/internal/obs"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/plan"
)

func twoTableQuery(mutate func(q *plan.Query)) *plan.Query {
	q := plan.NewQuery(3, 5)
	q.AddFilter(0, expr.Pred{Col: 1, Op: expr.GE, Lo: 10})
	q.AddFilter(0, expr.Pred{Col: 2, Op: expr.EQ, Lo: 7})
	q.AddJoin(expr.JoinCond{LeftTable: 0, LeftCol: 0, RightTable: 1, RightCol: 0})
	if mutate != nil {
		mutate(q)
	}
	return q
}

func TestCacheKeyNormalization(t *testing.T) {
	key := func(q *plan.Query, hint string) cacheKey {
		return cacheKey{epoch: 3, parallelism: 1, shape: queryShape(q, hint)}
	}
	base := key(twoTableQuery(nil), "default")

	// The shape is an exported identity (querystore statements, JSONL): pin
	// its bytes.
	if want := "hdefault|T3:c1 >= 10:c2 = 7|T5|t0.c0 = t1.c0"; base.shape != want {
		t.Errorf("shape = %q, want %q", base.shape, want)
	}

	// Filter order is incidental: reversed filters share the key.
	reordered := plan.NewQuery(3, 5)
	reordered.AddFilter(0, expr.Pred{Col: 2, Op: expr.EQ, Lo: 7})
	reordered.AddFilter(0, expr.Pred{Col: 1, Op: expr.GE, Lo: 10})
	reordered.AddJoin(expr.JoinCond{LeftTable: 0, LeftCol: 0, RightTable: 1, RightCol: 0})
	if got := key(reordered, "default"); got != base {
		t.Errorf("filter order changed the key:\n%v\nvs\n%v", got, base)
	}

	// Join orientation is incidental: the flipped condition shares the key.
	flipped := twoTableQuery(func(q *plan.Query) {
		q.Joins = []expr.JoinCond{{LeftTable: 1, LeftCol: 0, RightTable: 0, RightCol: 0}}
	})
	if got := key(flipped, "default"); got != base {
		t.Errorf("join orientation changed the key:\n%v\nvs\n%v", got, base)
	}

	// Everything that changes the planning problem changes the key.
	epoch, degree := base, base
	epoch.epoch++
	degree.parallelism = 4
	distinct := map[string]cacheKey{
		"literal":    key(twoTableQuery(func(q *plan.Query) { q.Filters[0][0].Lo = 11 }), "default"),
		"operator":   key(twoTableQuery(func(q *plan.Query) { q.Filters[0][0].Op = expr.LE }), "default"),
		"table":      key(twoTableQuery(func(q *plan.Query) { q.Tables[1] = 6 }), "default"),
		"join col":   key(twoTableQuery(func(q *plan.Query) { q.Joins[0].RightCol = 1 }), "default"),
		"hint":       key(twoTableQuery(nil), "hash-only"),
		"epoch":      epoch,
		"par degree": degree,
	}
	seen := map[cacheKey]string{base: "base"}
	for what, key := range distinct {
		if prev, dup := seen[key]; dup {
			t.Errorf("%s collides with %s: %v", what, prev, key)
		}
		seen[key] = what
	}
}

// newPlanCache is the engine's plan cache on its own.
func newPlanCache(capacity int, reg *obs.Registry) *lru[cacheKey, cached] {
	return newLRU[cacheKey, cached](capacity, reg, "engine.plancache")
}

// refShape renders a shape through fmt and the String methods of expr.Pred
// and expr.JoinCond: the reference queryShape must equal byte for byte, so
// the statement identities in the query store and its goldens never move.
func refShape(q *plan.Query, hintName string) string {
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

// TestQueryShapeMatchesReference: every operator, int64 extremes, more
// filters and joins than the sort's stack arrays hold, and an aggregate.
func TestQueryShapeMatchesReference(t *testing.T) {
	wide := plan.NewQuery(1)
	for c := 20; c > 0; c-- {
		wide.AddFilter(0, expr.Pred{Col: c % 7, Op: expr.Op(c % 7), Lo: int64(c) * -3, Hi: int64(c)})
	}
	star := plan.NewQuery(9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 10, 11, 12, 13, 14, 15, 16, 17, 18)
	for i := 18; i > 0; i-- {
		star.AddJoin(expr.JoinCond{LeftTable: i, LeftCol: i % 3, RightTable: 0, RightCol: i})
	}
	for name, tc := range map[string]struct {
		q    *plan.Query
		hint string
	}{
		"two tables": {twoTableQuery(nil), "default"},
		"NE and BETWEEN": {twoTableQuery(func(q *plan.Query) {
			q.AddFilter(1, expr.Pred{Col: 3, Op: expr.NE, Lo: -1})
			q.AddFilter(1, expr.Pred{Col: 0, Op: expr.BETWEEN, Lo: -5, Hi: 12})
		}), "hash-only"},
		"int64 extremes": {twoTableQuery(func(q *plan.Query) {
			q.AddFilter(0, expr.Pred{Col: 1, Op: expr.LT, Lo: math.MinInt64})
			q.AddFilter(1, expr.Pred{Col: 2, Op: expr.BETWEEN, Lo: math.MinInt64, Hi: math.MaxInt64})
			q.AddFilter(1, expr.Pred{Col: 2, Op: expr.GT, Lo: math.MaxInt64})
		}), ""},
		"aggregate": {twoTableQuery(func(q *plan.Query) {
			q.SetAgg(1, 2, plan.AggCol{Table: 0, Col: 4}, plan.AggCol{Table: 1, Col: 0})
		}), "no-nl"},
		"20 filters": {wide, "default"},
		"18 joins":   {star, "left-deep"},
	} {
		if got, want := queryShape(tc.q, tc.hint), refShape(tc.q, tc.hint); got != want {
			t.Errorf("%s: shape\n%q, reference\n%q", name, got, want)
		}
	}
}

func TestCacheLRUEviction(t *testing.T) {
	reg := obs.NewRegistry()
	c := newPlanCache(2, reg)
	mk := func(i int) cached { return cached{plan: plan.NewScan(i, i, nil)} }
	c.Put(cacheKey{shape: "a"}, mk(1))
	c.Put(cacheKey{shape: "b"}, mk(2))
	// Touch "a" so "b" is the LRU victim.
	if _, ok := c.Get(cacheKey{shape: "a"}); !ok {
		t.Fatal("a missing")
	}
	c.Put(cacheKey{shape: "c"}, mk(3))
	if _, ok := c.Get(cacheKey{shape: "b"}); ok {
		t.Error("LRU entry b survived past capacity")
	}
	if _, ok := c.Get(cacheKey{shape: "a"}); !ok {
		t.Error("recently used entry a was evicted")
	}
	if _, ok := c.Get(cacheKey{shape: "c"}); !ok {
		t.Error("newest entry c was evicted")
	}
	if got := reg.Counter("engine.plancache.evictions").Value(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

// TestPlanCacheCounterExport pins the exact counter values a capacity-2
// plan cache exports through a registry for a scripted workload: hits,
// misses, evictions, and invalidations must all match what the script
// implies.
func TestPlanCacheCounterExport(t *testing.T) {
	reg := obs.NewRegistry()
	c := newPlanCache(2, reg)
	run := func(shape string) {
		key := cacheKey{shape: shape}
		if _, ok := c.Get(key); !ok {
			c.Put(key, cached{plan: plan.NewScan(0, 0, nil)})
		}
	}
	counter := func(name string) int64 {
		return reg.Counter("engine.plancache." + name).Value()
	}

	// a miss, a hit, b miss, a hit (a now MRU), c miss evicting b, b miss
	// evicting a. Totals: 2 hits, 4 misses, 2 evictions.
	for _, shape := range []string{"a", "a", "b", "a", "c", "b"} {
		run(shape)
	}
	for name, want := range map[string]int64{"hits": 2, "misses": 4, "evictions": 2, "invalidations": 0} {
		if got := counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}

	// Invalidation counts every entry dropped (the cache holds 2).
	if c.Len() != 2 {
		t.Fatalf("cached plans = %d, want 2", c.Len())
	}
	c.Invalidate()
	if got := counter("invalidations"); got != 2 {
		t.Errorf("invalidations = %d after invalidate, want 2", got)
	}

	// The cache keeps counting after invalidation: one more miss, one hit.
	run("a")
	run("a")
	if got := counter("misses"); got != 5 {
		t.Errorf("misses = %d after invalidation round, want 5", got)
	}
	if got := counter("hits"); got != 3 {
		t.Errorf("hits = %d after invalidation round, want 3", got)
	}
}

// TestCacheServesTheStoredTree pins the sharing contract: the tree Put is
// handed is the tree every later Get serves (plans are read-only once built,
// so nothing is copied), and re-putting a key keeps the first tree.
func TestCacheServesTheStoredTree(t *testing.T) {
	c := newPlanCache(4, nil)
	orig := plan.NewJoin(plan.OpHashJoin, plan.NewScan(0, 0, nil), plan.NewScan(1, 1, nil), expr.JoinCond{RightTable: 1})
	c.Put(cacheKey{shape: "k"}, cached{plan: orig})
	c.Put(cacheKey{shape: "k"}, cached{plan: orig.Clone()})
	for i := 0; i < 2; i++ {
		if got, ok := c.Get(cacheKey{shape: "k"}); !ok || got.plan != orig {
			t.Fatalf("Get %d served %p (hit=%v), want the tree Put stored, %p", i, got.plan, ok, orig)
		}
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

// cachedJoin returns an entry holding a left-deep hash join over the given
// number of tables, the shape of tree the cache holds.
func cachedJoin(tables int) cached {
	p := plan.NewScan(0, 0, nil)
	for i := 1; i < tables; i++ {
		p = plan.NewJoin(plan.OpHashJoin, p, plan.NewScan(i, i, nil), expr.JoinCond{RightTable: i})
	}
	return cached{plan: p}
}

// BenchmarkPlanCacheGet is the micro tier of a plan-cache hit: one Get per
// iteration, with the registry's counters on. While Get served a deep clone
// a hit cost 1 / 9 / 25 allocations (176 / 928 / 2 432 B) for a 1- / 3- /
// 7-table plan; serving the stored tree costs none at any size. Run with
// go test -run '^$' -bench PlanCacheGet -benchmem ./internal/engine/.
func BenchmarkPlanCacheGet(b *testing.B) {
	for _, tables := range []int{1, 3, 7} {
		b.Run(fmt.Sprintf("tables=%d", tables), func(b *testing.B) {
			c := newPlanCache(4, obs.NewRegistry())
			key := cacheKey{epoch: 1, parallelism: 1, shape: "k"}
			c.Put(key, cachedJoin(tables))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := c.Get(key); !ok {
					b.Fatal("miss")
				}
			}
		})
	}
}

// TestPlanCacheGetAllocContract: a hit allocates nothing, whatever the plan's
// size.
func TestPlanCacheGetAllocContract(t *testing.T) {
	c := newPlanCache(4, obs.NewRegistry())
	key := cacheKey{epoch: 1, parallelism: 1, shape: "k"}
	c.Put(key, cachedJoin(7))
	if got := testing.AllocsPerRun(100, func() { c.Get(key) }); got != 0 {
		t.Errorf("a plan-cache hit allocates %.0f times, want 0", got)
	}
}

// TestPlanCachePutAtCapacityAllocContract: a Put into a full cache allocates
// nothing — it reuses the entry it evicts — and evicts exactly one.
func TestPlanCachePutAtCapacityAllocContract(t *testing.T) {
	reg := obs.NewRegistry()
	c := newPlanCache(4, reg)
	keys := make([]cacheKey, 200)
	for i := range keys {
		keys[i] = cacheKey{epoch: 1, parallelism: 1, shape: fmt.Sprintf("k%d", i)}
	}
	p := cachedJoin(7)
	for _, k := range keys[:4] {
		c.Put(k, p)
	}
	next := 4
	if got := testing.AllocsPerRun(100, func() { c.Put(keys[next], p); next++ }); got != 0 {
		t.Errorf("a Put into a full plan cache allocates %.0f times, want 0", got)
	}
	if ev := reg.Counter("engine.plancache.evictions").Value(); c.Len() != 4 || ev != int64(next-4) {
		t.Errorf("Len %d, %d evictions after %d Puts past capacity 4", c.Len(), ev, next-4)
	}
	for _, k := range keys[next-4 : next] {
		if got, ok := c.Get(k); !ok || got.plan != p.plan {
			t.Errorf("%s: the last four Puts are not all cached", k.shape)
		}
	}
}

func TestCacheInvalidate(t *testing.T) {
	reg := obs.NewRegistry()
	c := newPlanCache(8, reg)
	for i := 0; i < 5; i++ {
		c.Put(cacheKey{shape: fmt.Sprintf("k%d", i)}, cached{plan: plan.NewScan(i, i, nil)})
	}
	if n := c.Invalidate(); n != 5 {
		t.Errorf("Invalidate dropped %d, want 5", n)
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d after invalidate, want 0", c.Len())
	}
	if _, ok := c.Get(cacheKey{shape: "k0"}); ok {
		t.Error("entry survived invalidation")
	}
	if got := reg.Counter("engine.plancache.invalidations").Value(); got != 5 {
		t.Errorf("invalidations = %d, want 5", got)
	}
	// Cache keeps working after invalidation.
	c.Put(cacheKey{shape: "fresh"}, cached{plan: plan.NewScan(0, 0, nil)})
	if _, ok := c.Get(cacheKey{shape: "fresh"}); !ok {
		t.Error("cache unusable after invalidation")
	}
}
