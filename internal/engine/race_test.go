package engine_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"ml4db/internal/engine"
	"ml4db/internal/obs"
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

// TestAdmissionRejectsAtCapacity deterministically saturates a one-slot
// engine and checks the typed rejection, then verifies the slot is reusable
// after the in-flight query finishes.
func TestAdmissionRejectsAtCapacity(t *testing.T) {
	sch := chainCatalog(t, 20)
	reg := obs.NewRegistry()
	eng := engine.New(sch.Cat, engine.Options{MaxConcurrent: 1, Metrics: reg})
	gate := newGateEstimator(sch.Cat)
	if err := eng.SetEstimator(gate, 1); err != nil {
		t.Fatal(err)
	}
	q := chainQuery(sch)

	type outcome struct {
		res *engine.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := eng.Run(q)
		done <- outcome{res, err}
	}()
	<-gate.entered // the goroutine now holds the only slot, parked in planning

	_, err := eng.Run(q)
	if !errors.Is(err, engine.ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	var oe *engine.OverloadedError
	if !errors.As(err, &oe) {
		t.Fatalf("err = %v, want *OverloadedError", err)
	}
	if oe.Limit != 1 {
		t.Errorf("OverloadedError.Limit = %d, want 1", oe.Limit)
	}

	close(gate.release)
	first := <-done
	if first.err != nil {
		t.Fatalf("in-flight query failed: %v", first.err)
	}
	// The slot is free again; the rejected query now runs (cache hit, even).
	res, err := eng.Run(q)
	if err != nil {
		t.Fatalf("run after drain: %v", err)
	}
	if !res.CacheHit {
		t.Error("replay after drain missed the cache")
	}
	if got := reg.Counter("engine.rejected").Value(); got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
	if got := reg.Counter("engine.admitted").Value(); got != 2 {
		t.Errorf("admitted = %d, want 2", got)
	}
}

// TestConcurrentSessionsUnderRace hammers a small engine from many
// goroutines. Every call must end in exactly one of: a correct result or a
// typed overload rejection; the admission counters account for every
// attempt. Run under -race this also checks the cache/admission locking.
func TestConcurrentSessionsUnderRace(t *testing.T) {
	sch := chainCatalog(t, 21)
	reg := obs.NewRegistry()
	eng := engine.New(sch.Cat, engine.Options{MaxConcurrent: 2, Metrics: reg})
	q := chainQuery(sch)

	// Establish the expected result once, uncontended.
	baseline, err := eng.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	wantRows, wantWork := len(baseline.Rows), baseline.Work

	const workers = 8
	const perWorker = 200
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
