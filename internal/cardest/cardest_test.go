package cardest

import (
	"math"
	"testing"
	"time"

	"ml4db/internal/mlmath"
	"ml4db/internal/sqlkit/datagen"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/workload"
)

// testbed builds a star schema and labeled query workloads (independent and
// correlated predicate mixes).
type testbed struct {
	sch *datagen.StarSchema
	f   *Featurizer
	// train/test queries with true fractions
	trainQ, testQ  [][]expr.Pred
	trainY, testY  []float64
	testCorrelated []bool
}

func newTestbed(t *testing.T, seed uint64, nTrain, nTest int) *testbed {
	t.Helper()
	rng := mlmath.NewRNG(seed)
	sch, err := datagen.NewStarSchema(rng, 8000, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	fact := sch.Cat.Table(sch.FactID)
	f, err := NewFeaturizer(fact, sch.AttrCols)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewStarGen(sch, rng)
	tb := &testbed{sch: sch, f: f}
	draw := func() ([]expr.Pred, float64, bool) {
		corr := rng.Float64() < 0.5
		q := gen.SelectionQuery(2, corr)
		preds := q.Filters[0]
		return preds, TrueFraction(fact, preds), corr
	}
	for i := 0; i < nTrain; i++ {
		p, y, _ := draw()
		tb.trainQ = append(tb.trainQ, p)
		tb.trainY = append(tb.trainY, y)
	}
	for i := 0; i < nTest; i++ {
		p, y, c := draw()
		tb.testQ = append(tb.testQ, p)
		tb.testY = append(tb.testY, y)
		tb.testCorrelated = append(tb.testCorrelated, c)
	}
	return tb
}

// medianQError evaluates an estimator on the test set.
func (tb *testbed) medianQError(e Estimator, onlyCorrelated bool) float64 {
	var qs []float64
	const n = 8000
	for i, preds := range tb.testQ {
		if onlyCorrelated && !tb.testCorrelated[i] {
			continue
		}
		est := e.EstimateFraction(preds)
		qs = append(qs, mlmath.QError(est*n, tb.testY[i]*n))
	}
	return mlmath.Median(qs)
}

func TestFeaturizerEncodesRanges(t *testing.T) {
	tb := newTestbed(t, 1, 5, 5)
	preds := []expr.Pred{{Col: tb.sch.AttrCols[0], Op: expr.BETWEEN, Lo: 200, Hi: 400}}
	v := tb.f.Features(preds)
	if len(v) != tb.f.Dim() {
		t.Fatalf("dim %d != %d", len(v), tb.f.Dim())
	}
	if v[0] >= v[1] {
		t.Errorf("lo %v >= hi %v for constrained column", v[0], v[1])
	}
	if v[2] != 0 || v[3] != 1 {
		t.Errorf("unconstrained column encoded as (%v, %v)", v[2], v[3])
	}
}

func TestTrueFractionMatchesManualCount(t *testing.T) {
	tb := newTestbed(t, 2, 1, 1)
	fact := tb.sch.Cat.Table(tb.sch.FactID)
	col := tb.sch.AttrCols[0]
	preds := []expr.Pred{{Col: col, Op: expr.LE, Lo: 500}}
	frac := TrueFraction(fact, preds)
	count := 0
	for r := 0; r < fact.NumRows(); r++ {
		if fact.Data[col][r] <= 500 {
			count++
		}
	}
	if got := float64(count) / float64(fact.NumRows()); math.Abs(got-frac) > 1e-12 {
		t.Errorf("TrueFraction %v != manual %v", frac, got)
	}
}

func TestHistogramGoodOnIndependentBadOnCorrelated(t *testing.T) {
	tb := newTestbed(t, 3, 10, 120)
	h := &HistEstimator{Table: tb.sch.Cat.Table(tb.sch.FactID)}
	all := tb.medianQError(h, false)
	corr := tb.medianQError(h, true)
	if corr < 2 {
		t.Errorf("histogram q-error on correlated queries = %v; expected large", corr)
	}
	if corr <= all {
		t.Errorf("correlated q-error %v should exceed overall %v", corr, all)
	}
}

func TestSampleEstimatorHandlesCorrelation(t *testing.T) {
	tb := newTestbed(t, 4, 10, 120)
	s := NewSampleEstimator(tb.sch.Cat.Table(tb.sch.FactID), 2000)
	h := &HistEstimator{Table: tb.sch.Cat.Table(tb.sch.FactID)}
	if se, he := tb.medianQError(s, true), tb.medianQError(h, true); se >= he {
		t.Errorf("sample q-error %v not below histogram %v on correlated", se, he)
	}
}

func TestMLPBeatsHistogramOnCorrelated(t *testing.T) {
	tb := newTestbed(t, 5, 600, 120)
	rng := mlmath.NewRNG(6)
	m := NewMLPEstimator(tb.f, []int{32, 16}, rng)
	m.Train(tb.trainQ, tb.trainY, 120)
	h := &HistEstimator{Table: tb.sch.Cat.Table(tb.sch.FactID)}
	me, he := tb.medianQError(m, true), tb.medianQError(h, true)
	if me >= he {
		t.Errorf("MLP q-error %v not below histogram %v on correlated queries", me, he)
	}
	if me > 3 {
		t.Errorf("MLP correlated q-error %v too high", me)
	}
}

func TestNNGPTrainsFastAndAccurate(t *testing.T) {
	tb := newTestbed(t, 7, 500, 120)
	g := NewNNGP(tb.f, 1e-2)
	if err := g.Train(tb.trainQ, tb.trainY); err != nil {
		t.Fatal(err)
	}
	rng := mlmath.NewRNG(8)
	m := NewMLPEstimator(tb.f, []int{32, 16}, rng)
	m.Train(tb.trainQ, tb.trainY, 120)
	ge := tb.medianQError(g, false)
	if ge > 3 {
		t.Errorf("NNGP q-error %v too high", ge)
	}
	if g.TrainSeconds >= m.TrainSeconds {
		t.Errorf("NNGP trained in %vs, MLP in %vs: expected NNGP faster", g.TrainSeconds, m.TrainSeconds)
	}
}

func TestNNGPVarianceHigherOffDistribution(t *testing.T) {
	tb := newTestbed(t, 9, 300, 10)
	g := NewNNGP(tb.f, 1e-2)
	if err := g.Train(tb.trainQ, tb.trainY); err != nil {
		t.Fatal(err)
	}
	vIn := g.Variance(tb.trainQ[0])
	if vIn < 0 {
		// Tiny negative values can appear from floating point; fail only on
		// substantial violations.
		if vIn < -1e-6 {
			t.Errorf("negative posterior variance %v", vIn)
		}
	}
}

func TestNNGPRequiresData(t *testing.T) {
	tb := newTestbed(t, 10, 1, 1)
	g := NewNNGP(tb.f, 1e-2)
	if err := g.Train(nil, nil); err == nil {
		t.Error("expected error on empty training set")
	}
}

func TestDriftAdapterRecovers(t *testing.T) {
	tb := newTestbed(t, 11, 500, 1)
	rng := mlmath.NewRNG(12)
	m := NewMLPEstimator(tb.f, []int{32, 16}, rng)
	m.Train(tb.trainQ, tb.trainY, 120)
	ad := NewDriftAdapter(m)
	ad.Window = 30
	fact := tb.sch.Cat.Table(tb.sch.FactID)

	// Inject data drift: new rows centered at attr0≈900 with the usual
	// correlation, then a drifted workload querying that region.
	if err := workload.InjectDataDrift(tb.sch, rng, 8000, 900); err != nil {
		t.Fatal(err)
	}
	gen := workload.NewStarGen(tb.sch, rng)
	gen.CenterShift = 400
	var preDrift, postDrift []float64
	const n = 16000
	for i := 0; i < 160; i++ {
		q := gen.SelectionQuery(2, true)
		preds := q.Filters[0]
		truth := TrueFraction(fact, preds)
		est := ad.EstimateFraction(preds)
		qe := mlmath.QError(est*n, truth*n)
		// The serving model only changes at promotion: before the first
		// promotion (including while a candidate shadows) the stale incumbent
		// is still answering, so that is the phase split.
		if promotions, _, _ := ad.Rollout().Stats(); promotions == 0 {
			preDrift = append(preDrift, qe)
		} else {
			postDrift = append(postDrift, qe)
		}
		ad.Observe(preds, truth)
	}
	if ad.Retrainings == 0 {
		t.Fatal("drift adapter never retrained under drift")
	}
	if promotions, _, _ := ad.Rollout().Stats(); promotions == 0 {
		t.Fatal("retrained candidate was never promoted through the shadow gate")
	}
	if len(postDrift) < 10 {
		t.Fatalf("too few post-adaptation samples: %d", len(postDrift))
	}
	if mlmath.Median(postDrift) >= mlmath.Median(preDrift) {
		t.Errorf("adaptation did not reduce q-error: pre %v post %v",
			mlmath.Median(preDrift), mlmath.Median(postDrift))
	}
}

// stepClock advances by one second on every read, so code that brackets a
// computation with two Now() calls records exactly 1s regardless of real
// elapsed time.
type stepClock struct{ t time.Time }

func (c *stepClock) Now() time.Time {
	c.t = c.t.Add(time.Second)
	return c.t
}

// TestInjectedClockMakesTrainingMetricsReproducible is the determinism
// contract of this package: with an injected clock and a fixed seed, two
// training runs agree bit-for-bit on both the model and the recorded
// timing metric (which downstream retraining policies may consult).
func TestInjectedClockMakesTrainingMetricsReproducible(t *testing.T) {
	tb := newTestbed(t, 11, 120, 10)
	run := func() (*MLPEstimator, float64) {
		m := NewMLPEstimator(tb.f, []int{16}, mlmath.NewRNG(42))
		m.Clock = &stepClock{}
		m.Train(tb.trainQ, tb.trainY, 20)
		return m, m.TrainSeconds
	}
	a, secA := run()
	b, secB := run()
	if secA != 1 || secB != 1 {
		t.Fatalf("injected clock timings not reproduced: %v and %v, want exactly 1s", secA, secB)
	}
	for i, preds := range tb.testQ {
		if ea, eb := a.EstimateFraction(preds), b.EstimateFraction(preds); ea != eb {
			t.Fatalf("estimate %d differs across identically-seeded runs: %v vs %v", i, ea, eb)
		}
	}
}
