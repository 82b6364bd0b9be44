package experiments

import (
	"ml4db/internal/cardest"
	"ml4db/internal/mlmath"
	"ml4db/internal/sqlkit/exec"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/optimizer"
)

// E23 plugs the learned cardinality estimator into the classical optimizer
// (the ML-enhanced estimation path) and measures plan quality on the
// correlated-predicate workload that defeats histograms.
func E23(seed uint64) (*Report, error) {
	r := newReport("E23", "ML-enhanced estimation inside the expert optimizer (§3.2/§3.3)",
		"replacing only the scan-cardinality estimates with a learned model — keeping the optimizer's search and cost model — eliminates the nested-loop disasters caused by the independence assumption")
	env, gen, err := qoTestbed(seed, 8000)
	if err != nil {
		return nil, err
	}
	fact := env.Cat.Table(gen.Schema.FactID)
	f, err := cardest.NewFeaturizer(fact, gen.Schema.AttrCols)
	if err != nil {
		return nil, err
	}
	rng := mlmath.NewRNG(seed + 1)
	var trainPreds [][]expr.Pred
	var trainFracs []float64
	for i := 0; i < 500; i++ {
		preds := gen.SelectionQuery(2, i%2 == 0).Filters[0]
		trainPreds = append(trainPreds, preds)
		trainFracs = append(trainFracs, cardest.TrueFraction(fact, preds))
	}
	mlp := cardest.NewMLPEstimator(f, []int{32, 16}, rng)
	mlp.Train(trainPreds, trainFracs, 120)

	enhanced := optimizer.New(env.Cat)
	enhanced.Est = &cardest.OptimizerAdapter{
		Learned:      mlp,
		LearnedTable: gen.Schema.FactID,
		Fallback:     &optimizer.HistEstimator{Cat: env.Cat},
	}
	var plainW, enhW []float64
	nlPlain, nlEnh := 0, 0
	for i := 0; i < 40; i++ {
		q := gen.CorrelatedJoinQuery(2)
		pp, err := env.Opt.Plan(q, optimizer.NoHint())
		if err != nil {
			return nil, err
		}
		rp, err := env.Exec.Execute(pp, exec.Options{Output: exec.CountOnly})
		if err != nil {
			return nil, err
		}
		plainW = append(plainW, float64(rp.Work))
		if rp.Counters.NLPairs > 0 {
			nlPlain++
		}
		pe, err := enhanced.Plan(q, optimizer.NoHint())
		if err != nil {
			return nil, err
		}
		re, err := env.Exec.Execute(pe, exec.Options{Output: exec.CountOnly})
		if err != nil {
			return nil, err
		}
		enhW = append(enhW, float64(re.Work))
		if re.Counters.NLPairs > 0 {
			nlEnh++
		}
	}
	sp, se := mlmath.Summarize(plainW), mlmath.Summarize(enhW)
	r.rowf("%-22s %-12s %-12s %-14s", "estimation", "mean work", "p95 work", "plans with NL")
	r.rowf("%-22s %-12.0f %-12.0f %-14d", "histogram", sp.Mean, sp.P95, nlPlain)
	r.rowf("%-22s %-12.0f %-12.0f %-14d", "learned (adapter)", se.Mean, se.P95, nlEnh)
	r.Holds = se.Mean <= sp.Mean && nlEnh <= nlPlain
	r.Metrics["mean_ratio"] = se.Mean / sp.Mean
	return r, nil
}
