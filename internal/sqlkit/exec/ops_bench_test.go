package exec

import (
	"runtime"
	"testing"

	"ml4db/internal/mlmath"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/plan"
)

// The micro tier of the executor: one plan per operator over a synthetic
// table of a chosen size, each through the full output path (need marks,
// batches, ordering, the root transposition). BenchmarkExecOps reports time
// and allocations per execution; TestExecAllocContract pins that allocations
// do not grow with the input.

// opsCase is one operator's micro workload.
type opsCase struct {
	name string
	plan *plan.Node
	out  *plan.Output
}

// opsFixture builds big(id, k, v, p0, p1, p2) with the given row count
// (id = row number and indexed, k = id mod 64, v scattered over [0, 1000)),
// a spilled copy of it, and small(id, w) with 64 rows, and returns one case
// per operator. The filter comes twice: half of big's rows with two columns
// out, and wide, 8 % of them with every column out (SELECT *). The hash join
// comes three ways: dense (big builds, and every small row probes a chain of
// rows/64 matches), selective (small builds, and 6.4 % of big's rows match: a
// fact probing a filtered dimension) and sparse (small builds on w = id²,
// spread over [0, 3 969], so every big row's v lies in the build keys' range,
// the tag bits reject most and 3.2 % match). The
// disk scan comes three ways: filtered, unfiltered (both sized from the
// free-space map) and partitioned (each shard sized for its own pages,
// reading through its own scan run). The index scan comes twice: over big,
// and over a spilled copy of big indexed through its pool.
func opsFixture(tb testing.TB, rows int) (*Executor, []opsCase) {
	tb.Helper()
	fill := func(name string) *catalog.Table {
		t := catalog.NewTable(name, "id", "k", "v", "p0", "p1", "p2")
		for r := 0; r < rows; r++ {
			if err := t.AppendRow([]int64{int64(r), int64(r % 64), int64(r * 7919 % 1000), 1, 2, 3}); err != nil {
				tb.Fatal(err)
			}
		}
		return t
	}
	bigT, diskT, diskIxT := fill("big"), fill("bigdisk"), fill("bigdiskix")
	bigT.AddIndex(catalog.BuildSecondaryIndex(bigT, 0))
	spill(tb, diskT, 16)
	spill(tb, diskIxT, 16)
	diskIx, err := catalog.BuildSecondaryIndexIO(diskIxT, 0)
	if err != nil {
		tb.Fatal(err)
	}
	diskIxT.AddIndex(diskIx)
	smallT := catalog.NewTable("small", "id", "w")
	for r := 0; r < 64; r++ {
		if err := smallT.AppendRow([]int64{int64(r), int64(r * r)}); err != nil {
			tb.Fatal(err)
		}
	}
	cat := catalog.NewCatalog()
	big, disk, small, diskIdx := cat.MustAdd(bigT), cat.MustAdd(diskT), cat.MustAdd(smallT), cat.MustAdd(diskIxT)

	idV := &plan.Output{Cols: []plan.AggCol{{Table: 0, Col: 0}, {Table: 0, Col: 2}}, Limit: plan.NoLimit}
	vW := &plan.Output{Cols: []plan.AggCol{{Table: 0, Col: 2}, {Table: 1, Col: 1}}, Limit: plan.NoLimit}
	top := &plan.Output{Cols: idV.Cols, Limit: 10, OrderBy: []plan.OrderKey{
		{Col: plan.AggCol{Table: 0, Col: 2}, Desc: true}, {Col: plan.AggCol{Table: 0, Col: 1}}}}
	all := &plan.Output{Limit: plan.NoLimit}
	for c := 0; c < 6; c++ {
		all.Cols = append(all.Cols, plan.AggCol{Table: 0, Col: c})
	}
	half := []expr.Pred{{Col: 2, Op: expr.LE, Lo: 499}}
	tail := []expr.Pred{{Col: 2, Op: expr.GE, Lo: 920}} // 8 %
	quarter := []expr.Pred{{Col: 0, Op: expr.BETWEEN, Lo: 0, Hi: int64(rows / 4)}}
	join := func(op plan.OpType) *plan.Node { // big.k = small.id: every big row matches once
		return plan.NewJoin(op, plan.NewScan(0, big, nil), plan.NewScan(1, small, nil), on(0, 1, 1, 0))
	}
	// small.id = big.v: a 64-key build probed by every big row, 6.4 % of which match.
	selective := plan.NewJoin(plan.OpHashJoin, plan.NewScan(0, small, nil), plan.NewScan(1, big, nil), on(0, 0, 1, 2))
	// small.w = big.v: the same probe against keys spread wider than v's range.
	sparse := plan.NewJoin(plan.OpHashJoin, plan.NewScan(0, small, nil), plan.NewScan(1, big, nil), on(0, 1, 1, 2))
	wID := &plan.Output{Cols: []plan.AggCol{{Table: 0, Col: 1}, {Table: 1, Col: 0}}, Limit: plan.NoLimit}
	return New(cat), []opsCase{
		{"scan", plan.NewScan(0, big, nil), idV},
		{"filter", plan.NewScan(0, big, half), idV},
		{"filter/wide", plan.NewScan(0, big, tail), all},
		{"indexscan", plan.NewIndexScan(0, big, 0, quarter), idV},
		{"indexscan/disk", plan.NewIndexScan(0, diskIdx, 0, quarter), idV},
		{"hashjoin", join(plan.OpHashJoin), vW},
		{"hashjoin/selective", selective, wID},
		{"hashjoin/sparse", sparse, wID},
		{"nljoin", join(plan.OpNLJoin), vW},
		{"mergejoin", join(plan.OpMergeJoin), vW},
		{"hashagg", plan.NewAgg(plan.NewScan(0, big, nil), &plan.AggSpec{GroupCol: 1, Sums: []plan.AggCol{{Col: 2}}}), nil},
		{"topn", plan.NewScan(0, big, nil), top},
		{"diskscan", plan.NewScan(0, disk, half), idV},
		{"diskscan/all", plan.NewScan(0, disk, nil), idV},
		{"diskscan/P=2", forcePartitions(plan.NewScan(0, disk, half), 2), idV},
	}
}

// BenchmarkExecOps runs every fixture plan serially, then the partitionable
// ones again as NAME/P=2: the same plan with Partitions = 2 on every node,
// over a pool sized by GOMAXPROCS — so `-cpu 1,2,4` sweeps the workers, and
// NAME vs NAME/P=2 at one -cpu value is that operator's partitioned speedup.
func BenchmarkExecOps(b *testing.B) {
	e, cases := opsFixture(b, 32<<10)
	pool := mlmath.NewPool(runtime.GOMAXPROCS(0))
	defer pool.Close()
	for _, c := range cases {
		if c.name == "scan" || c.name == "filter" || c.name == "hashjoin" || c.name == "hashagg" {
			cases = append(cases, opsCase{name: c.name + "/P=2", plan: forcePartitions(c.plan, 2), out: c.out})
		}
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.Execute(c.plan, Options{Output: c.out, Pool: pool}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestExecAllocContract pins the allocation shape of the column-at-a-time
// executor. (1) No operator allocates per row: allocations do not grow
// between 1 k and 32 k input rows — a disk scan's page fetches included,
// which allocate nothing. (2) At steady state an execution takes every
// intermediate column, a join's position vectors and a merge's permutations
// included, from the executor's slab list: a case's second run leaves the
// list as long as its first did, and the counts are pinned (HashAgg's but for
// its map, whose allocations differ under -race). (3) With one Arena reused,
// as a session passes, an execution allocates only the range body of each
// SeqScan and join probe (ranged's callers), a partitioned run's shard
// records and the closure it hands the pool, and MergeJoin's two sort.Slice
// calls (a closure and a swapper each). (4) The smallest query — a single-leaf
// IndexScan returning one row through the full output path — allocates no
// more than it did when operators exchanged rows.
//
// Pin history, no arena: hashjoin (all three) 15 → 12, nljoin 14 → 11,
// mergejoin 16 → 13, topn 10 → 7 and diskscan/P=2 12 → 11 when the hash
// table, the join keys, their need masks and the batch headers moved into the
// arena and firstRows' heap into a slab with a typed sort.
func TestExecAllocContract(t *testing.T) {
	const smallRows, bigRows = 1 << 10, 32 << 10
	measure := func(rows int) (map[string]float64, []opsCase) {
		e, cases := opsFixture(t, rows)
		allocs := make(map[string]float64)
		for _, c := range cases {
			allocs[c.name] = testing.AllocsPerRun(3, func() {
				if _, err := e.Execute(c.plan, Options{Output: c.out}); err != nil {
					t.Fatal(err)
				}
			})
		}
		return allocs, cases
	}
	atSmall, _ := measure(smallRows)
	atBig, cases := measure(bigRows)
	for _, c := range cases {
		if atBig[c.name] > atSmall[c.name] {
			t.Errorf("%s: %.0f allocations at %d rows, %.0f at %d", c.name, atSmall[c.name], smallRows, atBig[c.name], bigRows)
		}
	}

	steady := map[string]float64{"scan": 7, "filter": 7, "filter/wide": 7, "indexscan": 6, "indexscan/disk": 6,
		"hashjoin": 12, "hashjoin/selective": 12, "hashjoin/sparse": 12, "nljoin": 11, "mergejoin": 13, "topn": 7,
		"diskscan": 7, "diskscan/all": 7, "diskscan/P=2": 11}
	e, _ := opsFixture(t, smallRows)
	for _, c := range cases {
		run := func() {
			if _, err := e.Execute(c.plan, Options{Output: c.out}); err != nil {
				t.Fatal(err)
			}
		}
		run()
		before := freeSlabs(e)
		if run(); freeSlabs(e) != before {
			t.Errorf("%s: %d slabs free after the first run, %d after the second: the second allocated a column", c.name, before, freeSlabs(e))
		}
		if want, ok := steady[c.name]; ok && atSmall[c.name] != want {
			t.Errorf("%s: %.0f allocations at %d rows, pinned at %.0f", c.name, atSmall[c.name], smallRows, want)
		}
	}

	arenaSteady := map[string]float64{"scan": 1, "filter": 1, "filter/wide": 1, "indexscan": 0, "indexscan/disk": 0,
		"hashjoin": 3, "hashjoin/selective": 3, "hashjoin/sparse": 3, "nljoin": 3, "mergejoin": 6, "topn": 1,
		"diskscan": 1, "diskscan/all": 1, "diskscan/P=2": 4}
	for _, c := range cases {
		arena := new(Arena)
		run := func() {
			if _, err := e.Execute(c.plan, Options{Output: c.out, Arena: arena}); err != nil {
				t.Fatal(err)
			}
		}
		for range 4 { // the arena's regions grow to the plan's needs
			run()
		}
		if want, ok := arenaSteady[c.name]; ok {
			if got := testing.AllocsPerRun(10, run); got != want {
				t.Errorf("%s: %.0f allocations with a reused arena, pinned at %.0f", c.name, got, want)
			}
		}
	}

	// At the parent of the column-at-a-time executor this query cost 7:
	// Execute's state, result, row slice and row, then the SQL front end's
	// offsets, row slice and projected row.
	const rowPathAllocs = 7
	one := plan.NewIndexScan(0, 0, 0, []expr.Pred{{Col: 0, Op: expr.EQ, Lo: 5}})
	all := &plan.Output{Limit: plan.NoLimit}
	for c := 0; c < 6; c++ {
		all.Cols = append(all.Cols, plan.AggCol{Table: 0, Col: c})
	}
	res, err := e.Execute(one, Options{Output: all})
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0] != 5 || len(res.Rows[0]) != 6 {
		t.Fatalf("one-row lookup returned %v, %v", res.Rows, err)
	}
	if got := testing.AllocsPerRun(100, func() { e.Execute(one, Options{Output: all}) }); got > rowPathAllocs {
		t.Errorf("one-row IndexScan allocates %.0f times, the row path took %d", got, rowPathAllocs)
	}
}
