package exec

import (
	"errors"
	"reflect"
	"testing"

	"ml4db/internal/mlmath"
	"ml4db/internal/sqlkit/datagen"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/optimizer"
	"ml4db/internal/sqlkit/plan"
	"ml4db/internal/storage"
)

// The exchange determinism contract (see exchange.go): for any plan, any
// worker count, and any budget, a partitioned execution is bit-identical to
// the serial execution — same rows in the same order, same Counters, same
// Work, same budget-abort error at the same Used value. These tests pin it.

// stripPartitions returns a clone of p with every Partitions knob cleared —
// the genuinely serial plan the parallel runs are compared against.
func stripPartitions(p *plan.Node) *plan.Node {
	out := p.Clone()
	out.Walk(func(n *plan.Node) { n.Partitions = 0 })
	return out
}

// forcePartitions returns a clone with every node's knob set to parts
// (operators that never partition — merge joins, index scans — ignore it by
// construction).
func forcePartitions(p *plan.Node, parts int) *plan.Node {
	out := p.Clone()
	out.Walk(func(n *plan.Node) { n.Partitions = parts })
	return out
}

// runOnce executes p and returns the full result and error.
func runOnce(t *testing.T, e *Executor, p *plan.Node, pool *mlmath.Pool, budget *Budget) (*Result, error) {
	t.Helper()
	return e.Execute(p, Options{Pool: pool, Budget: budget, Analyze: true})
}

// assertIdentical fails unless got matches want bit-for-bit: rows, order,
// work, counters, per-operator records, and the error (kind, limit, used for
// budget aborts).
func assertIdentical(t *testing.T, label string, want *Result, wantErr error, got *Result, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: error mismatch: serial %v vs parallel %v", label, wantErr, gotErr)
	}
	if wantErr != nil {
		var wb, gb *BudgetExceededError
		if errors.As(wantErr, &wb) && errors.As(gotErr, &gb) {
			if *wb != *gb {
				t.Fatalf("%s: abort mismatch: serial %+v vs parallel %+v", label, *wb, *gb)
			}
		} else if wantErr.Error() != gotErr.Error() {
			t.Fatalf("%s: error mismatch: %v vs %v", label, wantErr, gotErr)
		}
	}
	if want.Work != got.Work {
		t.Fatalf("%s: work %d vs %d", label, want.Work, got.Work)
	}
	if want.Counters != got.Counters {
		t.Fatalf("%s: counters\nserial   %+v\nparallel %+v", label, want.Counters, got.Counters)
	}
	if !reflect.DeepEqual(want.Rows, got.Rows) {
		t.Fatalf("%s: rows differ (serial %d, parallel %d)", label, len(want.Rows), len(got.Rows))
	}
	if !reflect.DeepEqual(want.Actuals, got.Actuals) {
		t.Fatalf("%s: per-operator records\nserial   %+v\nparallel %+v", label, want.Actuals, got.Actuals)
	}
	if got.Explain != nil && got.Explain.TotalWork() != got.Counters.Total() {
		t.Fatalf("%s: explain TotalWork %d != Counters.Total %d", label, got.Explain.TotalWork(), got.Counters.Total())
	}
}

// starQuery builds a 3-join star query with a moderately selective fact
// filter, so every join operator has real work on both sides.
func starQuery(sch *datagen.StarSchema) *plan.Query {
	q := plan.NewQuery(append([]int{sch.FactID}, sch.DimIDs...)...)
	q.AddFilter(0, expr.Pred{Col: sch.AttrCols[0], Op: expr.LE, Lo: 600})
	for d, dim := range sch.DimIDs {
		_ = dim
		q.AddJoin(expr.JoinCond{LeftTable: 0, LeftCol: sch.FKCol[d], RightTable: d + 1, RightCol: 0})
	}
	return q
}

// TestParallelMatchesSerialAcrossHints is the satellite property: for every
// standard hint set and every worker count 1..8, executing the optimizer's
// partitioned plan equals executing the stripped serial plan — full runs and
// budget-aborted runs alike (work aborts at ~30% and ~60% of full work, and
// a row abort).
func TestParallelMatchesSerialAcrossHints(t *testing.T) {
	rng := mlmath.NewRNG(7)
	sch, err := datagen.NewStarSchema(rng, 500, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(sch.Cat)
	opt.Parallelism = 8
	e := New(sch.Cat)
	q := starQuery(sch)

	for _, h := range optimizer.StandardHintSets() {
		p, err := opt.Plan(q, h)
		if err != nil {
			t.Fatalf("%s: %v", h.Name, err)
		}
		serial := stripPartitions(p)
		ref, refErr := runOnce(t, e, serial, nil, nil)
		if refErr != nil {
			t.Fatalf("%s: serial run failed: %v", h.Name, refErr)
		}
		budgets := []*Budget{
			nil,
			{MaxWork: ref.Work * 3 / 10},
			{MaxWork: ref.Work * 6 / 10},
			{MaxRows: int64(len(ref.Rows))/2 + 1},
		}
		for _, b := range budgets {
			want, wantErr := runOnce(t, e, serial, nil, b)
			for workers := 1; workers <= 8; workers++ {
				pool := mlmath.NewPool(workers)
				got, gotErr := runOnce(t, e, p, pool, b)
				pool.Close()
				label := h.Name
				if b != nil {
					label += "/budgeted"
				}
				assertIdentical(t, label, want, wantErr, got, gotErr)
			}
		}
	}
}

// TestForcedPartitionsMatchSerial sweeps explicit partition counts (including
// counts far above the worker count and above the row count) over each join
// operator and the aggregation: optimizer plans, and hand-built plans that
// put a filtered in-memory scan — a batch with a selection vector — under
// every operator that reads through one (hash build and probe, a second join
// condition, nested-loop outer and inner, both merge inputs, HashAgg). Every
// plan also returns refEval's rows.
func TestForcedPartitionsMatchSerial(t *testing.T) {
	rng := mlmath.NewRNG(11)
	sch, err := datagen.NewStarSchema(rng, 300, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	e := New(sch.Cat)
	opt := optimizer.New(sch.Cat)

	aggQ := starQuery(sch)
	aggQ.SetAgg(1, 1, plan.AggCol{Table: 0, Col: sch.AttrCols[1]})
	plainQ := starQuery(sch)
	type planCase struct {
		name string
		p    *plan.Node
	}
	var cases []planCase
	for _, tc := range []struct {
		name string
		q    *plan.Query
		hint optimizer.HintSet
	}{
		{"hash", plainQ, optimizer.StandardHintSets()[1]},
		{"agg", aggQ, optimizer.NoHint()},
	} {
		p, err := opt.Plan(tc.q, tc.hint)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		cases = append(cases, planCase{tc.name, p})
	}
	fact := plan.NewScan(0, sch.FactID, []expr.Pred{{Col: sch.AttrCols[0], Op: expr.BETWEEN, Lo: 400, Hi: 600}})
	dim := plan.NewScan(1, sch.DimIDs[0], []expr.Pred{{Col: 0, Op: expr.BETWEEN, Lo: 5, Hi: 30}})
	key := on(0, sch.FKCol[0], 1, 0)
	cases = append(cases,
		planCase{"at/hash", plan.NewJoin(plan.OpHashJoin, fact, dim, key, on(0, sch.FKCol[1], 1, 0))},
		planCase{"at/hash-probe", plan.NewJoin(plan.OpHashJoin, dim, fact, on(1, 0, 0, sch.FKCol[0]))},
		planCase{"at/nl", plan.NewJoin(plan.OpNLJoin, fact, dim, key)},
		planCase{"at/merge", plan.NewJoin(plan.OpMergeJoin, fact, dim, key)},
		planCase{"at/agg", plan.NewAgg(fact, &plan.AggSpec{GroupCol: sch.FKCol[0], Sums: []plan.AggCol{{Col: sch.AttrCols[1]}, {Col: sch.FKCol[0]}}})},
	)
	pool := mlmath.NewPool(4)
	defer pool.Close()
	for _, tc := range cases {
		serial := stripPartitions(tc.p)
		want, wantErr := runOnce(t, e, serial, nil, nil)
		if wantErr != nil {
			t.Fatalf("%s: %v", tc.name, wantErr)
		}
		var ctr Counters
		if ref := refEval(sch.Cat, tc.p, &ctr); len(ref) == 0 || !sameRows(canonical(want.Rows), canonical(ref)) {
			t.Fatalf("%s: %d rows, refEval %d", tc.name, len(want.Rows), len(ref))
		}
		for _, parts := range []int{1, 2, 3, 5, 8, 1000} {
			forced := forcePartitions(tc.p, parts)
			got, gotErr := runOnce(t, e, forced, pool, nil)
			assertIdentical(t, tc.name, want, wantErr, got, gotErr)
		}
	}
}

// TestAggParallelBudgetAbort pins the aggregation's abort identity: the
// partitioned accumulation must abort at the same input tuple as the serial
// accumulation loop.
func TestAggParallelBudgetAbort(t *testing.T) {
	rng := mlmath.NewRNG(13)
	sch, err := datagen.NewStarSchema(rng, 400, 50, 2)
	if err != nil {
		t.Fatal(err)
	}
	e := New(sch.Cat)
	opt := optimizer.New(sch.Cat)
	opt.Parallelism = 6
	q := starQuery(sch)
	q.SetAgg(0, sch.AttrCols[2], plan.AggCol{Table: 0, Col: sch.AttrCols[0]})
	p, err := opt.Plan(q, optimizer.NoHint())
	if err != nil {
		t.Fatal(err)
	}
	serial := stripPartitions(p)
	full, err := runOnce(t, e, serial, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Aim the work limit inside the aggregation's input phase: everything
	// below the agg plus a fraction of the AggInput charges.
	limit := full.Work - full.Counters.AggInput - full.Counters.OutputTuple + full.Counters.AggInput/3
	b := &Budget{MaxWork: limit}
	want, wantErr := runOnce(t, e, serial, nil, b)
	if wantErr == nil {
		t.Fatal("expected a budget abort")
	}
	pool := mlmath.NewPool(3)
	defer pool.Close()
	got, gotErr := runOnce(t, e, p, pool, b)
	assertIdentical(t, "agg-abort", want, wantErr, got, gotErr)
}

// TestParallelDiskScanMatchesSerial runs the partitioned disk scan against
// the serial one from identical cold pool states (fresh fixture per run, so
// the serial run's pool insertions cannot leak into the next run's miss
// counts) and checks bit-identity including PageMiss, plus zero leaked pins
// after both clean completion and a mid-shard abort.
func TestParallelDiskScanMatchesSerial(t *testing.T) {
	run := func(parts, workers int, budget *Budget) (*Result, error, *storage.Pool) {
		sp := storage.NewPool(storage.PoolOptions{Capacity: 8})
		_, disk := diskFixture(t, sp, 512)
		e := New(disk)
		scan := plan.NewScan(0, 0, []expr.Pred{{Col: 2, Op: expr.LE, Lo: 80}})
		scan.Partitions = parts
		var pool *mlmath.Pool
		if workers > 1 {
			pool = mlmath.NewPool(workers)
			defer pool.Close()
		}
		res, err := e.Execute(scan, Options{Pool: pool, Budget: budget, Analyze: true})
		return res, err, sp
	}

	want, wantErr, _ := run(0, 1, nil)
	if wantErr != nil {
		t.Fatal(wantErr)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		got, gotErr, sp := run(4, workers, nil)
		assertIdentical(t, "disk-full", want, wantErr, got, gotErr)
		if n := sp.PinnedCount(); n != 0 {
			t.Fatalf("workers=%d: %d pages still pinned after scan", workers, n)
		}
	}

	// Mid-scan abort: identical abort point, and no leaked pins.
	b := &Budget{MaxWork: want.Work / 2}
	wantAbort, wantAbortErr, _ := run(0, 1, b)
	if wantAbortErr == nil {
		t.Fatal("expected a budget abort")
	}
	for _, workers := range []int{2, 8} {
		got, gotErr, sp := run(4, workers, b)
		assertIdentical(t, "disk-abort", wantAbort, wantAbortErr, got, gotErr)
		if n := sp.PinnedCount(); n != 0 {
			t.Fatalf("workers=%d: %d pages still pinned after aborted scan", workers, n)
		}
	}
}

// TestExplainIdenticalAcrossWorkerCounts pins the EXPLAIN ANALYZE rendering:
// the same partitioned plan explains identically under every worker count
// (durations are read through a never-advancing manual clock).
func TestExplainIdenticalAcrossWorkerCounts(t *testing.T) {
	rng := mlmath.NewRNG(17)
	sch, err := datagen.NewStarSchema(rng, 300, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(sch.Cat)
	opt.Parallelism = 4
	q := starQuery(sch)
	p, err := opt.Plan(q, optimizer.NoHint())
	if err != nil {
		t.Fatal(err)
	}
	var renderings []string
	for _, workers := range []int{1, 2, 4, 8} {
		e := New(sch.Cat)
		e.Clock = &mlmath.ManualClock{}
		pool := mlmath.NewPool(workers)
		res, err := e.Execute(p, Options{Pool: pool, Analyze: true})
		pool.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		renderings = append(renderings, res.Explain.String())
	}
	for i := 1; i < len(renderings); i++ {
		if renderings[i] != renderings[0] {
			t.Fatalf("explain differs between worker counts:\n%s\nvs\n%s", renderings[0], renderings[i])
		}
	}
}
