package engine_test

import (
	"errors"
	"math"
	"testing"

	"ml4db/internal/engine"
	"ml4db/internal/mlmath"
	"ml4db/internal/obs"
	"ml4db/internal/sqlkit/datagen"
	"ml4db/internal/sqlkit/exec"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/optimizer"
	"ml4db/internal/sqlkit/plan"
)

// chainCatalog builds the standard three-table chain testbed.
func chainCatalog(t testing.TB, seed uint64) *datagen.ChainSchema {
	t.Helper()
	sch, err := datagen.NewChainSchema(mlmath.NewRNG(seed), []int{400, 200, 100})
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

// chainQuery joins the whole chain with a range filter on t0.attr.
func chainQuery(sch *datagen.ChainSchema) *plan.Query {
	q := plan.NewQuery(sch.TableIDs...)
	q.AddFilter(0, expr.Pred{Col: 2, Op: expr.GE, Lo: 450})
	q.AddJoin(expr.JoinCond{LeftTable: 0, LeftCol: 1, RightTable: 1, RightCol: 0})
	q.AddJoin(expr.JoinCond{LeftTable: 1, LeftCol: 1, RightTable: 2, RightCol: 0})
	return q
}

func TestRunMatchesDirectExecution(t *testing.T) {
	sch := chainCatalog(t, 1)
	eng := engine.New(sch.Cat, engine.Options{})
	q := chainQuery(sch)

	res, err := eng.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	p, err := optimizer.New(sch.Cat).Plan(q, optimizer.NoHint())
	if err != nil {
		t.Fatal(err)
	}
	direct, err := exec.New(sch.Cat).Execute(p, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(direct.Rows) {
		t.Fatalf("engine rows = %d, direct execution = %d", len(res.Rows), len(direct.Rows))
	}
	if res.Work != direct.Work {
		t.Errorf("engine work = %d, direct = %d (same plan must cost the same)", res.Work, direct.Work)
	}
	if res.CacheHit {
		t.Error("first run reported a cache hit")
	}
}

func TestPlanCacheHitIsBitIdentical(t *testing.T) {
	sch := chainCatalog(t, 2)
	reg := obs.NewRegistry()
	eng := engine.New(sch.Cat, engine.Options{Metrics: reg})
	q := chainQuery(sch)

	first, err := eng.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit || !second.CacheHit {
		t.Fatalf("CacheHit = (%v, %v), want (false, true)", first.CacheHit, second.CacheHit)
	}
	// A hit replays the identical plan, so result and work are
	// bit-identical, not merely equivalent.
	if len(first.Rows) != len(second.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(first.Rows), len(second.Rows))
	}
	for i := range first.Rows {
		for c := range first.Rows[i] {
			if first.Rows[i][c] != second.Rows[i][c] {
				t.Fatalf("row %d col %d differs between cached and uncached run", i, c)
			}
		}
	}
	if first.Work != second.Work {
		t.Errorf("work differs: %d vs %d", first.Work, second.Work)
	}
	if first.Plan.String() != second.Plan.String() {
		t.Error("cached plan differs from the originally built plan")
	}
	if hits := reg.Counter("engine.plancache.hits").Value(); hits != 1 {
		t.Errorf("plancache.hits = %d, want 1", hits)
	}
	if misses := reg.Counter("engine.plancache.misses").Value(); misses != 1 {
		t.Errorf("plancache.misses = %d, want 1", misses)
	}
}

func TestBudgetAbortIsDeterministicAndCounted(t *testing.T) {
	sch := chainCatalog(t, 3)
	reg := obs.NewRegistry()
	eng := engine.New(sch.Cat, engine.Options{Metrics: reg})
	sess := eng.Session()
	sess.Budget = &exec.Budget{MaxWork: 50}
	q := chainQuery(sch)

	var works []int64
	for i := 0; i < 2; i++ {
		res, err := sess.Run(q)
		if !errors.Is(err, exec.ErrWorkBudgetExceeded) {
			t.Fatalf("run %d: err = %v, want budget abort", i, err)
		}
		var be *exec.BudgetExceededError
		if !errors.As(err, &be) {
			t.Fatalf("run %d: err = %v, want *exec.BudgetExceededError", i, err)
		}
		works = append(works, res.Work)
	}
	// First run plans and aborts; second hits the plan cache and must abort
	// at exactly the same work count — the deterministic-cancellation
	// contract.
	if works[0] != works[1] {
		t.Errorf("abort points differ: %v", works)
	}
	if got := reg.Counter("engine.budget_aborts").Value(); got != 2 {
		t.Errorf("budget_aborts = %d, want 2", got)
	}
}

// nanEstimator is a broken learned estimator: every estimate is NaN.
type nanEstimator struct{}

func (nanEstimator) ScanRows(q *plan.Query, pos int) float64                { return math.NaN() }
func (nanEstimator) JoinSelectivity(q *plan.Query, c expr.JoinCond) float64 { return math.NaN() }

func TestFallbackOnBrokenEstimator(t *testing.T) {
	sch := chainCatalog(t, 4)
	reg := obs.NewRegistry()
	eng := engine.New(sch.Cat, engine.Options{Metrics: reg})
	if err := eng.SetEstimator(nanEstimator{}, 7); err != nil {
		t.Fatal(err)
	}
	q := chainQuery(sch)

	res, err := eng.Run(q)
	if err != nil {
		t.Fatalf("query must survive a broken estimator, got %v", err)
	}
	if !res.Fallback {
		t.Error("Fallback = false, want true (estimator returned NaN)")
	}
	// The fallback plan is exactly the classical plan.
	classical, err := optimizer.New(sch.Cat).Plan(q, optimizer.NoHint())
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.String() != classical.String() {
		t.Errorf("fallback plan differs from the classical plan:\n%s\nvs\n%s", res.Plan, classical)
	}
	if got := reg.Counter("engine.fallbacks").Value(); got != 1 {
		t.Errorf("fallbacks = %d, want 1", got)
	}
	// The cached entry is the (safe) fallback plan; the replay succeeds too.
	res2, err := eng.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.CacheHit {
		t.Error("second run after fallback missed the cache")
	}
}

func TestHealthyEstimatorDoesNotFallBack(t *testing.T) {
	sch := chainCatalog(t, 6)
	eng := engine.New(sch.Cat, engine.Options{})
	if err := eng.SetEstimator(&optimizer.HistEstimator{Cat: sch.Cat}, 1); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(chainQuery(sch))
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallback {
		t.Error("healthy estimator triggered a fallback")
	}
	if res.EstimatorVersion != 1 {
		t.Errorf("EstimatorVersion = %d, want 1", res.EstimatorVersion)
	}
}

func TestSetEstimatorRequiresVersion(t *testing.T) {
	sch := chainCatalog(t, 7)
	eng := engine.New(sch.Cat, engine.Options{})
	if err := eng.SetEstimator(nanEstimator{}, 0); err == nil {
		t.Error("SetEstimator accepted version 0 for a non-nil estimator")
	}
	if err := eng.SetEstimator(nil, 0); err != nil {
		t.Errorf("removing the estimator: %v", err)
	}
}

func TestSessionHintConstrainsPlan(t *testing.T) {
	sch := chainCatalog(t, 8)
	eng := engine.New(sch.Cat, engine.Options{})
	sess := eng.Session()
	sess.Hint = optimizer.HintSet{Name: "hash-only", JoinOps: []plan.OpType{plan.OpHashJoin}}
	res, err := sess.Run(chainQuery(sch))
	if err != nil {
		t.Fatal(err)
	}
	res.Plan.Walk(func(n *plan.Node) {
		if !n.IsLeaf() && n.Op != plan.OpHashJoin {
			t.Errorf("hash-only session produced a %v", n.Op)
		}
	})
	// Different hints are different cache keys: the default-hint plan for
	// the same query is a miss, not a wrong hit.
	res2, err := eng.Run(chainQuery(sch))
	if err != nil {
		t.Fatal(err)
	}
	if res2.CacheHit {
		t.Error("default-hint run hit the hash-only cache entry")
	}
}

// TestSameNameDifferentHintMissesCache: the plan cache identifies a hint set
// by what it allows, not by its label. Sessions whose hint sets share a Name
// (or leave it empty) but constrain the search differently each plan once,
// under their own hint, and afterwards each hits its own entry.
func TestSameNameDifferentHintMissesCache(t *testing.T) {
	for _, name := range []string{"", "custom"} {
		sch := chainCatalog(t, 8)
		eng := engine.New(sch.Cat, engine.Options{})
		q := chainQuery(sch)
		hints := []optimizer.HintSet{
			{Name: name, JoinOps: []plan.OpType{plan.OpNLJoin}},
			{Name: name, JoinOps: []plan.OpType{plan.OpHashJoin}},
			{Name: name, JoinOps: []plan.OpType{plan.OpHashJoin}, LeftDeepOnly: true},
			{Name: name, JoinOps: []plan.OpType{plan.OpHashJoin}, LeftDeepOnly: true, NoIndexScan: true},
		}
		for pass, wantHit := range []bool{false, true} {
			for i, hint := range hints {
				sess := eng.Session()
				sess.Hint = hint
				res, err := sess.Run(q)
				if err != nil {
					t.Fatal(err)
				}
				if res.CacheHit != wantHit {
					t.Errorf("name %q pass %d hint %d: CacheHit = %v, want %v", name, pass, i, res.CacheHit, wantHit)
				}
				res.Plan.Walk(func(n *plan.Node) {
					if !n.IsLeaf() && !hint.Allows(n.Op) {
						t.Errorf("name %q pass %d hint %d: session was served a %v it forbids", name, pass, i, n.Op)
					}
				})
			}
		}
	}
}

func TestSessionAnalyzeTelescopes(t *testing.T) {
	sch := chainCatalog(t, 9)
	eng := engine.New(sch.Cat, engine.Options{})
	sess := eng.Session()
	sess.Analyze = true
	res, err := sess.Run(chainQuery(sch))
	if err != nil {
		t.Fatal(err)
	}
	if res.Explain == nil {
		t.Fatal("Analyze session returned no EXPLAIN")
	}
	if got, want := res.Explain.TotalWork(), res.Counters.Total(); got != want {
		t.Errorf("EXPLAIN TotalWork = %d, want %d", got, want)
	}
}
