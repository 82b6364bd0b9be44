package engine_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"ml4db/internal/engine"
	"ml4db/internal/mlmath"
	"ml4db/internal/obs"
	"ml4db/internal/sqlkit/plan"
	"ml4db/internal/storage"
)

// TestCacheCoherenceAcrossParallelism is the plan-cache coherence property
// for the parallelism knob: a plan cached at one degree is never served at
// another (the degree is part of the cache key), switching back re-hits the
// old entry without invalidation, and results are bit-identical across
// degrees — partitioning only trades latency.
func TestCacheCoherenceAcrossParallelism(t *testing.T) {
	sch := chainCatalog(t, 21)
	pool := mlmath.NewPool(4)
	defer pool.Close()
	eng := engine.New(sch.Cat, engine.Options{Metrics: obs.NewRegistry(), Pool: pool})
	q := chainQuery(sch)

	if got := eng.Parallelism(); got != 4 {
		t.Fatalf("initial Parallelism = %d, want the pool's 4 workers", got)
	}

	parRes, err := eng.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := eng.Run(q); err != nil || !res.CacheHit {
		t.Fatalf("warm replay at p=4: err=%v hit=%v, want cached", err, res.CacheHit)
	}
	sawPartitioned := false
	parRes.Plan.Walk(func(n *plan.Node) {
		if n.Partitions > 1 {
			sawPartitioned = true
		}
	})
	if !sawPartitioned {
		t.Error("no operator partitioned at p=4; knob coherence test is vacuous")
	}

	// Drop to serial: the p=4 entry must become unreachable, the new plan
	// must be fully serial, and the rows must not change.
	eng.SetParallelism(1)
	serRes, err := eng.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if serRes.CacheHit {
		t.Error("plan cached at p=4 served at p=1")
	}
	serRes.Plan.Walk(func(n *plan.Node) {
		if n.Partitions > 1 {
			t.Errorf("p=1 plan still carries Partitions=%d on %v", n.Partitions, n.Op)
		}
	})
	if !reflect.DeepEqual(parRes.Rows, serRes.Rows) {
		t.Error("rows differ between p=4 and p=1 executions")
	}
	if parRes.Work != serRes.Work || parRes.Counters != serRes.Counters {
		t.Errorf("work/counters differ across degrees: p=4 work=%d, p=1 work=%d", parRes.Work, serRes.Work)
	}

	// Switching back re-hits the original p=4 entry: no invalidation
	// happened, the key just became reachable again.
	eng.SetParallelism(4)
	back, err := eng.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if !back.CacheHit {
		t.Error("returning to p=4 did not re-hit the cached entry")
	}
	if back.Plan.String() != parRes.Plan.String() {
		t.Errorf("re-hit plan differs from the original p=4 plan:\n%svs\n%s", back.Plan, parRes.Plan)
	}

	// Degrees clamp at one and are reflected by the getter.
	eng.SetParallelism(0)
	if got := eng.Parallelism(); got != 1 {
		t.Errorf("SetParallelism(0) left Parallelism = %d, want clamp to 1", got)
	}
}

// TestEngineWithoutPoolPlansSerially pins the default: no pool means degree
// one, so plans are byte-identical to the pre-parallel engine and the
// classical-coherence comparisons against fresh optimizers stay valid.
func TestEngineWithoutPoolPlansSerially(t *testing.T) {
	sch := chainCatalog(t, 22)
	eng := engine.New(sch.Cat, engine.Options{})
	if got := eng.Parallelism(); got != 1 {
		t.Fatalf("Parallelism = %d without a pool, want 1", got)
	}
	res, err := eng.Run(chainQuery(sch))
	if err != nil {
		t.Fatal(err)
	}
	res.Plan.Walk(func(n *plan.Node) {
		if n.Partitions > 1 {
			t.Errorf("pool-less engine produced Partitions=%d on %v", n.Partitions, n.Op)
		}
	})
}

// TestSessionsShareShardScratch: the shards of a partitioned operator run on
// the engine's pool and cut batch headers from their session's arena and take
// slabs from the executor's shared list while they run. Two sessions sharing
// one engine and a 2-worker pool run partitioned disk and in-memory scans,
// hash joins and a top-N concurrently, each in its own order so that widths
// and plan sizes interleave, and every result — rows, work, counters and
// actuals — equals the one a fresh session measured before, alone. Under
// -race (scripts/check.sh) a shard cutting the arena unguarded fails it.
func TestSessionsShareShardScratch(t *testing.T) {
	sch := chainCatalog(t, 21)
	t0 := sch.Cat.Table(sch.TableIDs[0])
	if err := t0.SpillToDisk(filepath.Join(t.TempDir(), "t0.tbl"), storage.NewPool(storage.PoolOptions{Capacity: 4})); err != nil {
		t.Fatal(err)
	}
	pool := mlmath.NewPool(2)
	defer pool.Close()
	eng := engine.New(sch.Cat, engine.Options{Pool: pool})
	stmts := []string{
		"SELECT id, attr FROM t0 WHERE attr >= 300",
		"SELECT id, next FROM t1 WHERE attr >= 200",
		"SELECT t0.id, t1.attr FROM t0, t1 WHERE t0.next = t1.id AND t1.attr >= 300",
		"SELECT t1.id, t2.attr FROM t1, t2 WHERE t1.next = t2.id",
		"SELECT t0.id, t1.attr FROM t0, t1 WHERE t0.next = t1.id ORDER BY t1.attr DESC, t0.id LIMIT 7",
		"SELECT * FROM t0, t1, t2 WHERE t0.next = t1.id AND t1.next = t2.id ORDER BY t2.attr, t0.id LIMIT 25",
	}
	want := make([]measured, len(stmts))
	ops := map[string]bool{}
	for i, sql := range stmts {
		rr, err := eng.Session().Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		want[i] = measuredOf(rr.Exec.Result)
		rr.Exec.Plan.Walk(func(n *plan.Node) {
			if n.Partitions > 1 {
				ops[fmt.Sprint(n.Op, sch.Cat.Table(n.TableID).IsDisk() && n.IsLeaf())] = true
			}
		})
	}
	for _, op := range []string{"SeqScan true", "SeqScan false", "HashJoin false"} {
		if !ops[op] {
			t.Fatalf("no partitioned %s (disk, if true) among the plans: the test is vacuous", op)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := eng.Session()
			for round := range 20 {
				for k := range stmts {
					i := (k + round) % len(stmts)
					if w == 1 {
						i = len(stmts) - 1 - i
					}
					rr, err := sess.Query(stmts[i])
					if err != nil {
						errs <- fmt.Errorf("%s: %v", stmts[i], err)
						return
					}
					if got := measuredOf(rr.Exec.Result); !reflect.DeepEqual(got, want[i]) {
						errs <- fmt.Errorf("session %d, round %d: %s: %d rows and work %d, alone %d and %d",
							w, round, stmts[i], len(got.rows), got.work, len(want[i].rows), want[i].work)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
