package engine_test

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"ml4db/internal/engine"
	"ml4db/internal/mlmath"
	"ml4db/internal/obs"
	"ml4db/internal/querystore"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/optimizer"
	"ml4db/internal/sqlkit/plan"
)

// gateEstimator blocks the first planning pass on a channel, letting a test
// hold an admission slot open deterministically. Test-only; the engine under
// test still spawns nothing.
type gateEstimator struct {
	inner   optimizer.CardEstimator
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func newGateEstimator(cat *catalog.Catalog) *gateEstimator {
	return &gateEstimator{
		inner:   &optimizer.HistEstimator{Cat: cat},
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
}

func (g *gateEstimator) gate() {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
}

func (g *gateEstimator) ScanRows(q *plan.Query, pos int) float64 {
	g.gate()
	return g.inner.ScanRows(q, pos)
}

func (g *gateEstimator) JoinSelectivity(q *plan.Query, c expr.JoinCond) float64 {
	g.gate()
	return g.inner.JoinSelectivity(q, c)
}

// TestAdmissionRejectsAtCapacity saturates the engine deterministically:
// inside Quiesce every one of the 8 admission slots is held, so each arrival
// gets the typed rejection naming that limit — N of N, and counted. Once
// Quiesce returns, the same statement runs.
func TestAdmissionRejectsAtCapacity(t *testing.T) {
	sch := chainCatalog(t, 20)
	reg := obs.NewRegistry()
	eng := engine.New(sch.Cat, engine.Options{Metrics: reg})
	q := chainQuery(sch)

	const offered = 32
	eng.Quiesce(func() {
		for i := 0; i < offered; i++ {
			_, err := eng.Run(q)
			if !errors.Is(err, engine.ErrOverloaded) {
				t.Fatalf("arrival %d: err = %v, want ErrOverloaded", i, err)
			}
			var oe *engine.OverloadedError
			if !errors.As(err, &oe) {
				t.Fatalf("arrival %d: err = %v, want *OverloadedError", i, err)
			}
			if oe.Limit != 8 {
				t.Errorf("OverloadedError.Limit = %d, want 8", oe.Limit)
			}
		}
	})

	if _, err := eng.Run(q); err != nil {
		t.Fatalf("run after drain: %v", err)
	}
	if got := reg.Counter("engine.rejected").Value(); got != offered {
		t.Errorf("rejected = %d, want %d", got, offered)
	}
	if got := reg.Counter("engine.admitted").Value(); got != 1 {
		t.Errorf("admitted = %d, want 1", got)
	}
}

// TestConcurrentSessionsUnderRace hammers the engine from twice as many
// goroutines as it has admission slots. Every call must end in exactly one
// of: a correct result or a typed overload rejection; the admission counters
// account for every attempt. Run under -race this also checks the cache/admission locking.
func TestConcurrentSessionsUnderRace(t *testing.T) {
	sch := chainCatalog(t, 21)
	reg := obs.NewRegistry()
	eng := engine.New(sch.Cat, engine.Options{Metrics: reg})
	q := chainQuery(sch)

	// Establish the expected result once, uncontended.
	baseline, err := eng.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	wantRows, wantWork := len(baseline.Rows), baseline.Work

	const workers = 16
	const perWorker = 100
	var ok, overloaded atomic.Int64
	fail := make(chan string, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := eng.Session()
			for i := 0; i < perWorker; i++ {
				res, err := sess.Run(q)
				switch {
				case err == nil:
					ok.Add(1)
					if len(res.Rows) != wantRows || res.Work != wantWork {
						fail <- "result diverged under concurrency"
						return
					}
				case errors.Is(err, engine.ErrOverloaded):
					overloaded.Add(1)
				default:
					fail <- "unexpected error: " + err.Error()
					return
				}
			}
		}()
	}
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Fatal(msg)
	}
	total := ok.Load() + overloaded.Load()
	if total != workers*perWorker {
		t.Errorf("ok %d + overloaded %d = %d, want %d", ok.Load(), overloaded.Load(), total, workers*perWorker)
	}
	// Counters see the same arithmetic (+1 for the baseline run).
	admitted := reg.Counter("engine.admitted").Value()
	rejected := reg.Counter("engine.rejected").Value()
	if admitted != ok.Load()+1 {
		t.Errorf("admitted counter = %d, want %d", admitted, ok.Load()+1)
	}
	if rejected != overloaded.Load() {
		t.Errorf("rejected counter = %d, want %d", rejected, overloaded.Load())
	}
	if ok.Load() == 0 {
		t.Error("no query ever succeeded")
	}
}

// TestSessionsShareOneCachedTree is the read-only-plan contract under -race:
// the plan cache hands every session the one tree the first run planned, and
// eight sessions executing it at once — EXPLAIN ANALYZE and the workload
// store on, shards on a two-worker pool — get identical rows, work, counters
// and per-operator records while the tree itself never changes.
func TestSessionsShareOneCachedTree(t *testing.T) {
	sch := chainCatalog(t, 23)
	pool := mlmath.NewPool(2)
	defer pool.Close()
	reg := obs.NewRegistry()
	store := querystore.New(querystore.Options{Catalog: sch.Cat})
	eng := engine.New(sch.Cat, engine.Options{Metrics: reg, Store: store, Pool: pool})
	q := chainQuery(sch)

	first := eng.Session()
	first.Analyze = true
	want, err := first.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if want.CacheHit || len(want.Rows) == 0 || len(want.Actuals) != want.Plan.NumNodes() {
		t.Fatalf("first run: hit=%v, %d rows, %d records for %d nodes", want.CacheHit, len(want.Rows), len(want.Actuals), want.Plan.NumNodes())
	}
	partitioned := false
	want.Plan.Walk(func(n *plan.Node) { partitioned = partitioned || n.Partitions > 1 })
	if !partitioned {
		t.Fatalf("no operator is partitioned; the pool is idle:\n%s", want.Plan)
	}
	asPlanned := want.Plan.Clone()

	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := eng.Session()
			sess.Analyze = true
			for i := 0; i < perWorker; i++ {
				res, err := sess.Run(q)
				if err != nil {
					t.Errorf("run %d: %v", i, err)
					return
				}
				if !res.CacheHit || res.Plan != want.Plan {
					t.Errorf("run %d: hit=%v plan %p, want the cached tree %p", i, res.CacheHit, res.Plan, want.Plan)
					return
				}
				if res.Work != want.Work || res.Counters != want.Counters || res.Explain.TotalWork() != want.Work ||
					!reflect.DeepEqual(res.Actuals, want.Actuals) || !reflect.DeepEqual(res.Rows, want.Rows) {
					t.Errorf("run %d diverged: work %d vs %d, counters %+v vs %+v, records %+v vs %+v",
						i, res.Work, want.Work, res.Counters, want.Counters, res.Actuals, want.Actuals)
					return
				}
			}
		}()
	}
	wg.Wait()

	if !reflect.DeepEqual(want.Plan, asPlanned) {
		t.Errorf("the shared tree changed under execution:\n got  %s\n want %s", want.Plan, asPlanned)
	}
	if got := eng.CachedPlans(); got != 1 {
		t.Errorf("CachedPlans = %d, want 1", got)
	}
	if hits, misses := reg.Counter("engine.plancache.hits").Value(), reg.Counter("engine.plancache.misses").Value(); hits != workers*perWorker || misses != 1 {
		t.Errorf("plancache hits / misses = %d / %d, want %d / 1", hits, misses, workers*perWorker)
	}
	// Every run harvested the same actuals against the same estimates.
	st := store.Statements()
	if len(st) != 1 || st[0].Calls != workers*perWorker+1 || st[0].QErrCount != st[0].Calls || st[0].TotalRows != st[0].Calls*want.Actuals[0].Rows {
		t.Errorf("statements = %+v, want one with %d calls, each harvested", st, workers*perWorker+1)
	}
}
