package exec

import (
	"testing"
	"testing/quick"

	"ml4db/internal/mlmath"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/datagen"
	"ml4db/internal/sqlkit/optimizer"
	"ml4db/internal/sqlkit/plan"
	"ml4db/internal/workload"
)

// bruteForceCard evaluates a query by nested loops over the base tables,
// independent of the plan/executor machinery — the reference semantics.
func bruteForceCard(cat *catalog.Catalog, q *plan.Query) int {
	n := q.NumTables()
	tables := make([]*catalog.Table, n)
	for i, tid := range q.Tables {
		tables[i] = cat.Table(tid)
	}
	count := 0
	rows := make([]int, n)
	var walk func(pos int)
	walk = func(pos int) {
		if pos == n {
			count++
			return
		}
		t := tables[pos]
	next:
		for r := 0; r < t.NumRows(); r++ {
			for _, f := range q.Filters[pos] {
				if !f.Eval(t.Data[f.Col][r]) {
					continue next
				}
			}
			rows[pos] = r
			// Check join conditions whose both sides are bound.
			for _, j := range q.Joins {
				if j.LeftTable <= pos && j.RightTable <= pos {
					lv := tables[j.LeftTable].Data[j.LeftCol][rows[j.LeftTable]]
					rv := tables[j.RightTable].Data[j.RightCol][rows[j.RightTable]]
					if lv != rv {
						continue next
					}
				}
			}
			walk(pos + 1)
		}
	}
	walk(0)
	return count
}

// refOffset is refEval's own statement of the row layout, written apart from
// ColOffset so the two can disagree: walk n's leaves in order, adding table
// widths until the leaf scanning pos.
func refOffset(cat *catalog.Catalog, n *plan.Node, pos, col int) int {
	off, found := 0, -1
	n.Walk(func(x *plan.Node) {
		if !x.IsLeaf() || found >= 0 {
			return
		}
		if x.TablePos == pos {
			found = off + col
		}
		off += len(cat.Table(x.TableID).Columns)
	})
	return found
}

// refEval evaluates a plan node by definition — filters, nested loops and a
// group map straight over the in-memory catalog's columns, sharing no loop
// with the executor, every one of a join's conditions tested on every pair —
// and returns the node's output rows. Into want it adds
// the counters the plan must charge that follow from the data alone:
// ScanTuples = |table|, HashBuild = |left|, HashProbe = |right|,
// NLPairs = |left|·|right|, MergeSort = the shared sort formula,
// OutputTuple = |join or agg output|, AggInput = |agg input|. (IndexProbe,
// IndexFetch, MergeScan and PageMiss depend on index, order and pool state
// and stay out of the closed form.)
func refEval(cat *catalog.Catalog, n *plan.Node, want *Counters) [][]int64 {
	switch n.Op {
	case plan.OpSeqScan, plan.OpIndexScan:
		t := cat.Table(n.TableID)
		if n.Op == plan.OpSeqScan {
			want.ScanTuples += int64(t.NumRows())
		}
		var out [][]int64
	next:
		for r := 0; r < t.NumRows(); r++ {
			for _, f := range n.Filters {
				if !f.Eval(t.Data[f.Col][r]) {
					continue next
				}
			}
			row := make([]int64, t.NumCols())
			for c := range row {
				row[c] = t.Data[c][r]
			}
			out = append(out, row)
		}
		return out
	case plan.OpHashAgg:
		in := refEval(cat, n.Children[0], want)
		groupCol := refOffset(cat, n.Children[0], n.Agg.GroupTable, n.Agg.GroupCol)
		groups := map[int64][]int64{}
		for _, row := range in {
			g := groups[row[groupCol]]
			if g == nil {
				g = make([]int64, 2+len(n.Agg.Sums))
				g[0] = row[groupCol]
				groups[g[0]] = g
			}
			g[1]++
			for i, c := range n.Agg.Sums {
				g[2+i] += row[refOffset(cat, n.Children[0], c.Table, c.Col)]
			}
		}
		var out [][]int64
		for _, g := range groups {
			out = append(out, g)
		}
		want.AggInput += int64(len(in))
		want.OutputTuple += int64(len(out))
		return out
	}
	left := refEval(cat, n.Children[0], want)
	right := refEval(cat, n.Children[1], want)
	lo, ro := make([]int, len(n.Conds)), make([]int, len(n.Conds))
	for i, c := range n.Conds {
		lo[i] = refOffset(cat, n.Children[0], c.LeftTable, c.LeftCol)
		ro[i] = refOffset(cat, n.Children[1], c.RightTable, c.RightCol)
	}
	var out [][]int64
	for _, l := range left {
	pair:
		for _, r := range right {
			for i := range n.Conds {
				if l[lo[i]] != r[ro[i]] {
					continue pair
				}
			}
			out = append(out, append(append([]int64{}, l...), r...))
		}
	}
	nl, nr, nout := int64(len(left)), int64(len(right)), int64(len(out))
	switch n.Op {
	case plan.OpHashJoin:
		want.HashBuild += nl
		want.HashProbe += nr
		want.OutputTuple += nout
	case plan.OpNLJoin:
		want.NLPairs += nl * nr
	case plan.OpMergeJoin:
		want.MergeSort += int64(plan.SortUnits(len(left)) + plan.SortUnits(len(right)))
		want.OutputTuple += nout
	}
	return out
}

// closedForm keeps the counters refEval derives and zeroes the rest, so a
// run's Counters compare against refEval's with ==.
func closedForm(c Counters) Counters {
	c.IndexProbe, c.IndexFetch, c.MergeScan, c.PageMiss = 0, 0, 0, 0
	return c
}

// partitionSweep is the Partitions values every reference check runs under:
// serial (0 and 1), even and odd splits, and more shards than most inputs
// have pages or rows per shard.
var partitionSweep = []int{0, 1, 2, 3, 8}

// checkAgainstReference executes p under every partitionSweep value on each
// executor (the in-memory catalog and its spilled twin) and fails unless
// every run returns refEval's row multiset and closed-form counters.
func checkAgainstReference(t *testing.T, label string, mem *catalog.Catalog, p *plan.Node, execs map[string]*Executor, pool *mlmath.Pool) bool {
	t.Helper()
	var want Counters
	wantRows := canonical(refEval(mem, p, &want))
	ok := true
	for storageName, ex := range execs {
		for _, parts := range partitionSweep {
			res, err := ex.Execute(forcePartitions(p, parts), Options{Pool: pool})
			if err != nil {
				t.Errorf("%s/%s/P=%d: %v", label, storageName, parts, err)
				return false
			}
			if !sameRows(canonical(res.Rows), wantRows) {
				t.Errorf("%s/%s/P=%d: %d rows, reference %d\nplan:\n%s", label, storageName, parts, len(res.Rows), len(wantRows), p)
				ok = false
			}
			if got := closedForm(res.Counters); got != want {
				t.Errorf("%s/%s/P=%d: counters\ngot  %+v\nwant %+v", label, storageName, parts, got, want)
				ok = false
			}
		}
	}
	return ok
}

// TestOptimizedPlansMatchReferenceSemantics is the end-to-end property: for
// random star queries, every hint set's optimized plan — including plans
// using secondary indexes — returns exactly the reference cardinality, and
// under every partition count, over the in-memory fact table and a spilled
// copy of it, the reference rows and closed-form counters.
func TestOptimizedPlansMatchReferenceSemantics(t *testing.T) {
	rng := mlmath.NewRNG(99)
	build := func(rng *mlmath.RNG) *datagen.StarSchema {
		sch, err := datagen.NewStarSchema(rng, 400, 60, 3)
		if err != nil {
			t.Fatal(err)
		}
		// Index two fact attributes so index-scan paths participate.
		fact := sch.Cat.Table(sch.FactID)
		fact.AddIndex(catalog.BuildSecondaryIndex(fact, sch.AttrCols[0]))
		fact.AddIndex(catalog.BuildSecondaryIndex(fact, sch.AttrCols[2]))
		return sch
	}
	// The twin holds the same data (same seed) with its fact table spilled.
	sch, twin := build(rng), build(mlmath.NewRNG(99))
	spill(t, twin.Cat.Table(twin.FactID), 2)
	gen := workload.NewStarGen(sch, rng)
	opt := optimizer.New(sch.Cat)
	opt.Cost = optimizer.TrueCostParams()
	ex := New(sch.Cat)
	execs := map[string]*Executor{"mem": ex, "spilled": New(twin.Cat)}
	pool := mlmath.NewPool(3)
	defer pool.Close()

	f := func(seed uint64) bool {
		q := gen.Query()
		_ = seed // query stream already deterministic; seed keeps quick happy
		want := bruteForceCard(sch.Cat, q)
		for _, h := range optimizer.StandardHintSets() {
			p, err := opt.Plan(q, h)
			if err != nil {
				t.Logf("plan error: %v", err)
				return false
			}
			res, err := ex.Execute(p, Options{})
			if err != nil {
				t.Logf("exec error: %v", err)
				return false
			}
			if len(res.Rows) != want {
				t.Logf("hint %s: got %d rows, reference %d\nquery %s\nplan:\n%s",
					h.Name, len(res.Rows), want, q.Signature(), p)
				return false
			}
			if !checkAgainstReference(t, h.Name, sch.Cat, p, execs, pool) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// pairCatalog builds a(x, y) and b(x, y), 120 rows each over a domain of 10
// per column, so a.x = b.x alone matches about 1 440 pairs and adding
// a.y = b.y keeps about a tenth of them.
func pairCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	rng := mlmath.NewRNG(11)
	cat := catalog.NewCatalog()
	for _, name := range []string{"a", "b"} {
		tbl, err := datagen.GenTable(rng, name, 120, []datagen.ColSpec{
			{Name: "x", Kind: datagen.Uniform, Domain: 10},
			{Name: "y", Kind: datagen.Uniform, Domain: 10},
		})
		if err != nil {
			t.Fatal(err)
		}
		cat.MustAdd(tbl)
	}
	cat.AnalyzeAll(32, 512)
	return cat
}

// TestCyclicAndDoubleEdgeJoinsMatchReference: a join graph with a cycle, or
// two conditions between one pair of tables, puts more than one condition on
// some join node, and none may be dropped. Every standard hint set's plan
// returns the brute-force cardinality and, under every partition count over
// memory and a spilled twin, refEval's rows and closed-form counters.
func TestCyclicAndDoubleEdgeJoinsMatchReference(t *testing.T) {
	chain := func() *catalog.Catalog {
		sch, err := datagen.NewChainSchema(mlmath.NewRNG(7), []int{200, 200, 200})
		if err != nil {
			t.Fatal(err)
		}
		return sch.Cat
	}
	triangle := func(lc, rc int) *plan.Query { // t0.next=t1.id AND t1.next=t2.id AND t0.c<lc>=t2.c<rc>
		return plan.NewQuery(0, 1, 2).AddJoin(on(0, 1, 1, 0)).AddJoin(on(1, 1, 2, 0)).AddJoin(on(0, lc, 2, rc))
	}
	pool := mlmath.NewPool(3)
	defer pool.Close()
	for _, tc := range []struct {
		name  string
		build func() *catalog.Catalog
		q     *plan.Query
		want  int // brute-force cardinality; −1: whatever brute force says
	}{
		{"triangle/attr", chain, triangle(2, 2), 0},
		{"triangle/next", chain, triangle(1, 1), 1},
		{"triangle/id", chain, triangle(0, 0), 1},
		{"double-edge", func() *catalog.Catalog { return pairCatalog(t) },
			plan.NewQuery(0, 1).AddJoin(on(0, 0, 1, 0)).AddJoin(on(0, 1, 1, 1)), -1},
	} {
		mem, twin := tc.build(), tc.build()
		spill(t, twin.Table(0), 2)
		want := bruteForceCard(mem, tc.q)
		if tc.want >= 0 && want != tc.want {
			t.Fatalf("%s: brute force says %d rows, expected %d", tc.name, want, tc.want)
		}
		if tc.want < 0 && (want == 0 || want >= 1000) {
			t.Fatalf("%s: brute force says %d rows; the second condition should keep some pairs and drop most", tc.name, want)
		}
		execs := map[string]*Executor{"mem": New(mem), "spilled": New(twin)}
		for _, h := range optimizer.StandardHintSets() {
			p, err := optimizer.New(mem).Plan(tc.q, h)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, h.Name, err)
			}
			res, err := execs["mem"].Execute(p, Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, h.Name, err)
			}
			if len(res.Rows) != want {
				t.Errorf("%s/%s: %d rows, brute force %d\nplan:\n%s", tc.name, h.Name, len(res.Rows), want, p)
			}
			checkAgainstReference(t, tc.name+"/"+h.Name, mem, p, execs, pool)
		}
	}
}
