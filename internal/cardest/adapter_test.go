package cardest

import (
	"math"
	"testing"

	"ml4db/internal/mlmath"
	"ml4db/internal/sqlkit/datagen"
	"ml4db/internal/sqlkit/exec"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/optimizer"
	"ml4db/internal/sqlkit/plan"
	"ml4db/internal/workload"
)

// adapterTestbed trains an MLP estimator over the fact table and returns an
// optimizer wired to use it through the adapter, plus the plain optimizer.
func adapterTestbed(t *testing.T, seed uint64) (*datagen.StarSchema, *workload.StarGen, *optimizer.Optimizer, *optimizer.Optimizer) {
	t.Helper()
	rng := mlmath.NewRNG(seed)
	sch, err := datagen.NewStarSchema(rng, 8000, 150, 2)
	if err != nil {
		t.Fatal(err)
	}
	fact := sch.Cat.Table(sch.FactID)
	f, err := NewFeaturizer(fact, sch.AttrCols)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewStarGen(sch, rng)
	var trainPreds [][]expr.Pred
	var trainFracs []float64
	for i := 0; i < 500; i++ {
		preds := gen.SelectionQuery(2, i%2 == 0).Filters[0]
		trainPreds = append(trainPreds, preds)
		trainFracs = append(trainFracs, TrueFraction(fact, preds))
	}
	mlp := NewMLPEstimator(f, []int{32, 16}, rng)
	mlp.Train(trainPreds, trainFracs, 120)

	plain := optimizer.New(sch.Cat)
	enhanced := optimizer.New(sch.Cat)
	enhanced.Est = &OptimizerAdapter{
		Learned:      mlp,
		LearnedTable: sch.FactID,
		Fallback:     &optimizer.HistEstimator{Cat: sch.Cat},
	}
	return sch, gen, plain, enhanced
}

func TestAdapterImprovesScanEstimates(t *testing.T) {
	sch, gen, plain, enhanced := adapterTestbed(t, 1)
	fact := sch.Cat.Table(sch.FactID)
	ex := exec.New(sch.Cat)
	var qPlain, qEnh []float64
	for i := 0; i < 25; i++ {
		q := gen.CorrelatedJoinQuery(1)
		truthPlan, err := plain.Plan(q, optimizer.NoHint())
		if err != nil {
			t.Fatal(err)
		}
		res, err := ex.Execute(truthPlan, exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		truth := float64(fact.NumRows()) * TrueFraction(fact, q.Filters[0])
		_ = res
		qPlain = append(qPlain, mlmath.QError(plain.Est.ScanRows(q, 0), truth))
		qEnh = append(qEnh, mlmath.QError(enhanced.Est.ScanRows(q, 0), truth))
	}
	if mlmath.Median(qEnh) >= mlmath.Median(qPlain) {
		t.Errorf("enhanced scan q-error %v not below histogram %v",
			mlmath.Median(qEnh), mlmath.Median(qPlain))
	}
}

// TestAdapterAvoidsNLDisasters: with corrected cardinalities the optimizer
// stops picking nested-loop joins on underestimated inputs.
func TestAdapterAvoidsNLDisasters(t *testing.T) {
	sch, gen, plain, enhanced := adapterTestbed(t, 2)
	_ = sch
	ex := exec.New(sch.Cat)
	var wPlain, wEnh int64
	for i := 0; i < 25; i++ {
		q := gen.CorrelatedJoinQuery(2)
		pp, err := plain.Plan(q, optimizer.NoHint())
		if err != nil {
			t.Fatal(err)
		}
		rp, err := ex.Execute(pp, exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		wPlain += rp.Work
		pe, err := enhanced.Plan(q, optimizer.NoHint())
		if err != nil {
			t.Fatal(err)
		}
		re, err := ex.Execute(pe, exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		wEnh += re.Work
		if len(rp.Rows) != len(re.Rows) {
			t.Fatalf("query %d: plans disagree on cardinality (%d vs %d)", i, len(rp.Rows), len(re.Rows))
		}
	}
	if wEnh > wPlain {
		t.Errorf("ML-enhanced estimation work %d above histogram-only %d", wEnh, wPlain)
	}
}

func TestAdapterFallbackPaths(t *testing.T) {
	sch, gen, _, enhanced := adapterTestbed(t, 3)
	// Dimension scans and join selectivities route through the fallback.
	q := gen.QueryWithDims(2)
	hist := &optimizer.HistEstimator{Cat: sch.Cat}
	for pos := 1; pos < q.NumTables(); pos++ {
		if enhanced.Est.ScanRows(q, pos) != hist.ScanRows(q, pos) {
			t.Errorf("dimension scan at pos %d does not use fallback", pos)
		}
	}
	for _, c := range q.Joins {
		if enhanced.Est.JoinSelectivity(q, c) != hist.JoinSelectivity(q, c) {
			t.Error("join selectivity does not use fallback")
		}
	}
	// Unfiltered fact scans also fall back.
	q2 := plan.NewQuery(sch.FactID)
	if enhanced.Est.ScanRows(q2, 0) != hist.ScanRows(q2, 0) {
		t.Error("unfiltered scan does not use fallback")
	}
}

// star7Adapter returns a learned adapter over a six-dimension star schema
// with adhoc_plan's 3 000-row fact table, and the 7-table star join the
// engine's cold-path benchmarks plan (engine.star7SQL): the fact table and
// six dimensions, two fact filters and one on each of two dimensions. The
// model trains briefly: these tests read its arithmetic, not its accuracy.
func star7Adapter(t *testing.T) (*OptimizerAdapter, *MLPEstimator, *plan.Query, *datagen.StarSchema) {
	t.Helper()
	rng := mlmath.NewRNG(7)
	sch, err := datagen.NewStarSchema(rng, 3000, 200, 6)
	if err != nil {
		t.Fatal(err)
	}
	fact := sch.Cat.Table(sch.FactID)
	f, err := NewFeaturizer(fact, sch.AttrCols)
	if err != nil {
		t.Fatal(err)
	}
	preds := make([][]expr.Pred, 100)
	fracs := make([]float64, len(preds))
	for i := range preds {
		preds[i] = adhocPreds(sch, rng)
		fracs[i] = TrueFraction(fact, preds[i])
	}
	mlp := NewMLPEstimator(f, []int{32, 16}, rng)
	mlp.Train(preds, fracs, 5)
	dims := []int{3, 0, 5, 1, 2, 4}
	tables := []int{sch.FactID}
	for _, d := range dims {
		tables = append(tables, sch.DimIDs[d])
	}
	q := plan.NewQuery(tables...)
	for pos, d := range dims {
		q.AddJoin(expr.JoinCond{LeftTable: 0, LeftCol: sch.FKCol[d], RightTable: pos + 1, RightCol: 0})
	}
	q.AddFilter(0, expr.Pred{Col: sch.AttrCols[0], Op: expr.BETWEEN, Lo: 412, Hi: 432})
	q.AddFilter(0, expr.Pred{Col: sch.AttrCols[1], Op: expr.GE, Lo: 17})
	q.AddFilter(1, expr.Pred{Col: 0, Op: expr.GE, Lo: 41})
	q.AddFilter(2, expr.Pred{Col: 0, Op: expr.BETWEEN, Lo: 23, Hi: 72})
	return &OptimizerAdapter{Learned: mlp, LearnedTable: sch.FactID, Fallback: &optimizer.HistEstimator{Cat: sch.Cat}}, mlp, q, sch
}

// adhocPreds draws fact filters of the shape adhoc_plan issues: attr0 in a
// 21-wide range and attr1 above a bound.
func adhocPreds(sch *datagen.StarSchema, rng *mlmath.RNG) []expr.Pred {
	x := int64(300 + rng.Intn(360))
	return []expr.Pred{
		{Col: sch.AttrCols[0], Op: expr.BETWEEN, Lo: x, Hi: x + 20},
		{Col: sch.AttrCols[1], Op: expr.GE, Lo: int64(rng.Intn(275))},
	}
}

// TestLearnedInferenceAllocContract pins what one learned estimate of the
// 7-table star's fact scan allocates: EstimateFraction 1 (one buffer for the
// features and every layer's output of the 4-32-16-1 network) and the
// adapter's ScanRows 2 (that buffer, and the one-table query it asks the
// fallback for the unfiltered row count), in a plain build and under -race.
// They were 10 and 12 while each layer allocated its backward cache and its
// two output vectors and ScanRows built a whole query of q's tables.
func TestLearnedInferenceAllocContract(t *testing.T) {
	adapter, mlp, q, _ := star7Adapter(t)
	preds := q.Filters[0]
	if got := testing.AllocsPerRun(100, func() { mlp.EstimateFraction(preds) }); got > 1 {
		t.Errorf("EstimateFraction: %.0f allocs, ceiling 1", got)
	}
	if got := testing.AllocsPerRun(100, func() { adapter.ScanRows(q, 0) }); got > 2 {
		t.Errorf("learned ScanRows: %.0f allocs, ceiling 2", got)
	}
}

// TestLearnedEstimateBitIdentical: on adhoc_plan-style predicates the learned
// estimate is, bit for bit, what the training pass's forward computes
// (MLP.ForwardTape, whose per-layer cache inference no longer builds), and
// the adapter's scan estimate is that fraction times the fallback's row count
// of the whole unfiltered query — the formula ScanRows had before it asked
// about the table alone.
func TestLearnedEstimateBitIdentical(t *testing.T) {
	adapter, mlp, q, sch := star7Adapter(t)
	rng := mlmath.NewRNG(11)
	for i := 0; i < 200; i++ {
		preds := adhocPreds(sch, rng)
		_, out := mlp.Net.ForwardTape(mlp.F.Features(preds))
		want := invLogit(out[0])
		got := mlp.EstimateFraction(preds)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%v: EstimateFraction %x, training forward %x", preds, got, want)
		}
		q.Filters[0] = preds
		wantRows := want * adapter.Fallback.ScanRows(plan.NewQuery(q.Tables...), 0)
		if wantRows < 1 {
			wantRows = 1
		}
		if gotRows := adapter.ScanRows(q, 0); math.Float64bits(gotRows) != math.Float64bits(wantRows) {
			t.Fatalf("%v: ScanRows %x, fraction × unfiltered rows %x", preds, gotRows, wantRows)
		}
	}
}
