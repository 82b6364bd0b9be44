package engine_test

import (
	"sync"
	"testing"

	"ml4db/internal/engine"
	"ml4db/internal/obs"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/optimizer"
	"ml4db/internal/sqlkit/plan"
)

// constEstimator is a healthy learned estimator with estimates far from the
// histogram path: tiny scans, selectivity one. It deliberately steers the
// optimizer toward different plans than the classical estimator would pick.
type constEstimator struct{}

func (constEstimator) ScanRows(q *plan.Query, pos int) float64                { return 2 }
func (constEstimator) JoinSelectivity(q *plan.Query, c expr.JoinCond) float64 { return 1 }

// TestCacheCoherenceAcrossHints is the plan-cache coherence property, checked
// for every standard hint set: a cached plan is never served after a stats
// refresh or an estimator promotion — the next run re-plans against current
// state and must produce exactly the plan a fresh optimizer would build.
func TestCacheCoherenceAcrossHints(t *testing.T) {
	plansChangedOnRefresh := 0
	plansChangedOnPromotion := 0
	for _, hint := range optimizer.StandardHintSets() {
		hint := hint
		t.Run(hint.Name, func(t *testing.T) {
			sch := chainCatalog(t, 11)
			eng := engine.New(sch.Cat, engine.Options{Metrics: obs.NewRegistry()})
			sess := eng.Session()
			sess.Hint = hint
			q := chainQuery(sch)

			warm, err := sess.Run(q)
			if err != nil {
				t.Fatal(err)
			}
			if res, err := sess.Run(q); err != nil || !res.CacheHit {
				t.Fatalf("warm replay: err=%v hit=%v, want cached", err, res.CacheHit)
			}

			// Shift the data distribution hard: t2 grows 50x, so join
			// cardinalities (and with them many hinted plans) change.
			t2 := sch.Cat.Table(sch.TableIDs[2])
			for i := 0; i < 5000; i++ {
				if err := t2.AppendRow([]int64{int64(100 + i), 0, int64(i % 37)}); err != nil {
					t.Fatal(err)
				}
			}
			eng.RefreshStats(32, 512)

			afterRefresh, err := sess.Run(q)
			if err != nil {
				t.Fatal(err)
			}
			if afterRefresh.CacheHit {
				t.Error("cached plan served after a stats refresh")
			}
			fresh, err := optimizer.New(sch.Cat).Plan(q, hint)
			if err != nil {
				t.Fatal(err)
			}
			if afterRefresh.Plan.String() != fresh.String() {
				t.Errorf("post-refresh plan is not the fresh classical plan:\n%svs\n%s", afterRefresh.Plan, fresh)
			}
			if afterRefresh.Plan.String() != warm.Plan.String() {
				plansChangedOnRefresh++
			}

			// Estimator promotion: the next run must re-plan under the new
			// estimator, matching a fresh optimizer using it directly.
			if err := eng.SetEstimator(constEstimator{}, 2); err != nil {
				t.Fatal(err)
			}
			afterPromo, err := sess.Run(q)
			if err != nil {
				t.Fatal(err)
			}
			if afterPromo.CacheHit {
				t.Error("cached plan served after an estimator promotion")
			}
			if afterPromo.Fallback {
				t.Error("healthy promoted estimator triggered fallback")
			}
			learnedOpt := &optimizer.Optimizer{Cat: sch.Cat, Est: constEstimator{}, Cost: optimizer.DefaultCostParams()}
			freshLearned, err := learnedOpt.Plan(q, hint)
			if err != nil {
				t.Fatal(err)
			}
			if afterPromo.Plan.String() != freshLearned.String() {
				t.Errorf("post-promotion plan is not the fresh learned plan:\n%svs\n%s", afterPromo.Plan, freshLearned)
			}
			if afterPromo.Plan.String() != afterRefresh.Plan.String() {
				plansChangedOnPromotion++
			}

			// And the cache works again afterwards.
			if res, err := sess.Run(q); err != nil || !res.CacheHit {
				t.Fatalf("replay after promotion: err=%v hit=%v, want cached", err, res.CacheHit)
			}

			// Physical design change — what the autopilot does when it
			// adopts an index: the cached plan must not survive, and the
			// re-plan must match a fresh optimizer seeing the new index.
			t0 := sch.Cat.Table(sch.TableIDs[0])
			t0.AddIndex(catalog.BuildSecondaryIndex(t0, 2))
			eng.NotifyDesignChange()
			afterIndex, err := sess.Run(q)
			if err != nil {
				t.Fatal(err)
			}
			if afterIndex.CacheHit {
				t.Error("cached plan served after an index build")
			}
			freshIndexed, err := learnedOpt.Plan(q, hint)
			if err != nil {
				t.Fatal(err)
			}
			if afterIndex.Plan.String() != freshIndexed.String() {
				t.Errorf("post-index plan is not the fresh plan over the new design:\n%svs\n%s", afterIndex.Plan, freshIndexed)
			}

			// Dropping the index — the autopilot's shadow-trial revert —
			// must invalidate again and restore the pre-index plan.
			t0.DropIndex(2)
			eng.NotifyDesignChange()
			afterDrop, err := sess.Run(q)
			if err != nil {
				t.Fatal(err)
			}
			if afterDrop.CacheHit {
				t.Error("cached plan served after an index drop")
			}
			if afterDrop.Plan.String() != afterPromo.Plan.String() {
				t.Errorf("post-drop plan differs from the pre-index plan:\n%svs\n%s", afterDrop.Plan, afterPromo.Plan)
			}
			if res, err := sess.Run(q); err != nil || !res.CacheHit {
				t.Fatalf("replay after design changes: err=%v hit=%v, want cached", err, res.CacheHit)
			}
		})
	}
	// The property must not hold vacuously: the invalidation events actually
	// changed the chosen plan for at least one hint set.
	if plansChangedOnRefresh == 0 {
		t.Error("stats refresh changed no plan under any hint set; property test is vacuous")
	}
	if plansChangedOnPromotion == 0 {
		t.Error("estimator promotion changed no plan under any hint set; property test is vacuous")
	}
}

// TestStalePutIsNeverServed is the coherence case the epoch exists for: a
// session loads its planning snapshot, a mutator moves the epoch while that
// session is still planning, and the session then Puts its plan — built under
// the old estimator — into the cache the mutator has just emptied. The entry
// sits under the old epoch, so no later query can reach it.
func TestStalePutIsNeverServed(t *testing.T) {
	sch := chainCatalog(t, 13)
	eng := engine.New(sch.Cat, engine.Options{Metrics: obs.NewRegistry()})
	q := chainQuery(sch)
	gate := newGateEstimator(sch.Cat)
	if err := eng.SetEstimator(gate, 1); err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		res *engine.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := eng.Run(q)
		done <- outcome{res, err}
	}()
	<-gate.entered // parked inside planning, snapshot already loaded

	if err := eng.SetEstimator(constEstimator{}, 2); err != nil {
		t.Fatal(err)
	}
	close(gate.release)
	stale := <-done
	if stale.err != nil {
		t.Fatal(stale.err)
	}
	if stale.res.CacheHit || stale.res.EstimatorVersion != 1 {
		t.Fatalf("in-flight query: hit=%v version=%d, want a miss planned under version 1", stale.res.CacheHit, stale.res.EstimatorVersion)
	}
	if eng.CachedPlans() != 1 {
		t.Fatalf("cached plans = %d, want the one stale Put", eng.CachedPlans())
	}

	learnedOpt := &optimizer.Optimizer{Cat: sch.Cat, Est: constEstimator{}, Cost: optimizer.DefaultCostParams()}
	want, err := learnedOpt.Plan(q, optimizer.NoHint())
	if err != nil {
		t.Fatal(err)
	}
	if want.String() == stale.res.Plan.String() {
		t.Fatal("both estimators choose the same plan; the test cannot tell a stale plan from a fresh one")
	}
	for i, wantHit := range []bool{false, true, true} {
		res, err := eng.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheHit != wantHit || res.EstimatorVersion != 2 {
			t.Errorf("run %d after the install: hit=%v version=%d, want hit=%v version=2", i, res.CacheHit, res.EstimatorVersion, wantHit)
		}
		if res.Plan.String() != want.String() {
			t.Errorf("run %d after the install served a plan that is not the fresh learned plan:\n%svs\n%s", i, res.Plan, want)
		}
	}
}

// TestEveryMutatorMissesOnceThenHits: a query that starts after any mutator
// has returned plans afresh exactly once. A parallelism switch is the one
// mutator that keeps the old entries, so switching back hits straight away.
func TestEveryMutatorMissesOnceThenHits(t *testing.T) {
	sch := chainCatalog(t, 14)
	reg := obs.NewRegistry()
	eng := engine.New(sch.Cat, engine.Options{Metrics: reg})
	q := chainQuery(sch)
	expect := func(what string, hits ...bool) {
		t.Helper()
		for i, want := range hits {
			res, err := eng.Run(q)
			if err != nil {
				t.Fatal(err)
			}
			if res.CacheHit != want {
				t.Errorf("%s, run %d: hit=%v, want %v", what, i, res.CacheHit, want)
			}
		}
	}
	expect("fresh engine", false, true)
	mutators := []struct {
		name  string
		apply func()
		event string
	}{
		{"RefreshStats", func() { eng.RefreshStats(16, 128) }, "engine.stats_refreshes"},
		{"NotifyDesignChange", eng.NotifyDesignChange, "engine.design_changes"},
		{"SetRewriters", func() { eng.SetRewriters(nil) }, "engine.design_changes"},
		{"SetEstimator", func() { _ = eng.SetEstimator(constEstimator{}, 7) }, "engine.estimator_installs"},
		// The same version again is still an install: the estimator behind a
		// version number may have changed.
		{"SetEstimator again", func() { _ = eng.SetEstimator(constEstimator{}, 7) }, "engine.estimator_installs"},
		{"removing the estimator", func() { _ = eng.SetEstimator(nil, 0) }, "engine.estimator_installs"},
	}
	for _, m := range mutators {
		before := reg.Counter(m.event).Value()
		m.apply()
		if got := reg.Counter(m.event).Value(); got != before+1 {
			t.Errorf("%s moved %s by %d, want 1", m.name, m.event, got-before)
		}
		if eng.CachedPlans() != 0 {
			t.Errorf("%s left %d plans cached", m.name, eng.CachedPlans())
		}
		expect("after "+m.name, false, true)
	}
	eng.SetParallelism(3)
	expect("after SetParallelism(3)", false, true)
	eng.SetParallelism(1)
	expect("back at degree 1", true)
	eng.NotifyDesignChange()
	eng.SetParallelism(3)
	expect("degree 3 after a design change", false, true)
}

// TestSessionsRacingMutators runs sessions against every lock-free mutator
// at once (under -race this is the data-race check for the snapshot). Each
// result must be internally consistent — the version it reports is one that
// was installed, with the rows every plan of this query returns — and once
// the mutators stop, the engine settles: one miss, then hits.
func TestSessionsRacingMutators(t *testing.T) {
	sch := chainCatalog(t, 15)
	eng := engine.New(sch.Cat, engine.Options{Metrics: obs.NewRegistry()})
	q := chainQuery(sch)
	base, err := eng.Run(q)
	if err != nil {
		t.Fatal(err)
	}

	const sessions, perSession, rounds = 4, 150, 60
	var wg sync.WaitGroup
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := eng.Session()
			for i := 0; i < perSession; i++ {
				res, err := sess.Run(q)
				if err != nil {
					t.Errorf("query failed while mutators ran: %v", err)
					return
				}
				if len(res.Rows) != len(base.Rows) || res.Work == 0 {
					t.Errorf("rows=%d work=%d, want %d rows", len(res.Rows), res.Work, len(base.Rows))
					return
				}
				if v := res.EstimatorVersion; v < 0 || v > rounds {
					t.Errorf("result reports estimator version %d, never installed", v)
					return
				}
			}
		}()
	}
	mutate := func(step func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= rounds; i++ {
				step(i)
			}
		}()
	}
	mutate(func(i int) { _ = eng.SetEstimator(constEstimator{}, i) })
	mutate(func(int) { eng.NotifyDesignChange() })
	mutate(func(i int) { eng.SetParallelism(1 + i%3) })
	wg.Wait()

	if res, err := eng.Run(q); err != nil || res.EstimatorVersion != rounds {
		t.Fatalf("after the race: err=%v version=%d, want %d", err, res.EstimatorVersion, rounds)
	}
	if res, err := eng.Run(q); err != nil || !res.CacheHit {
		t.Fatalf("after the race the cache did not settle: err=%v hit=%v", err, res.CacheHit)
	}
}
