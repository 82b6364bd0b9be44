package experiments

import (
	"ml4db/internal/cardest"
	"ml4db/internal/mlmath"
	"ml4db/internal/planrep"
	"ml4db/internal/pretrain"
	"ml4db/internal/samgen"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/datagen"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/workload"
)

// cardTestbed builds the cardinality-estimation testbed: schema, featurizer,
// and labeled train/test workloads.
type cardTestbed struct {
	sch            *datagen.StarSchema
	f              *cardest.Featurizer
	trainQ, testQ  [][]expr.Pred
	trainY, testY  []float64
	testCorrelated []bool
}

func newCardTestbed(seed uint64, factRows, nTrain, nTest int) (*cardTestbed, error) {
	rng := mlmath.NewRNG(seed)
	sch, err := datagen.NewStarSchema(rng, factRows, 100, 2)
	if err != nil {
		return nil, err
	}
	fact := sch.Cat.Table(sch.FactID)
	f, err := cardest.NewFeaturizer(fact, sch.AttrCols)
	if err != nil {
		return nil, err
	}
	gen := workload.NewStarGen(sch, rng)
	tb := &cardTestbed{sch: sch, f: f}
	draw := func() ([]expr.Pred, float64, bool) {
		corr := rng.Float64() < 0.5
		preds := gen.SelectionQuery(2, corr).Filters[0]
		return preds, cardest.TrueFraction(fact, preds), corr
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
	return tb, nil
}

func (tb *cardTestbed) medianQErr(e cardest.Estimator, onlyCorrelated bool) float64 {
	var sel [][]expr.Pred
	var truth []float64
	for i, preds := range tb.testQ {
		if onlyCorrelated && !tb.testCorrelated[i] {
			continue
		}
		sel = append(sel, preds)
		truth = append(truth, tb.testY[i])
	}
	const n = 1e6
	fracs := cardest.EstimateAll(e, sel)
	qs := make([]float64, len(sel))
	for i := range qs {
		qs[i] = mlmath.QError(fracs[i]*n, truth[i]*n)
	}
	return mlmath.Median(qs)
}

// E13 compares estimator families on accuracy, training time, and size.
func E13(seed uint64) (*Report, error) {
	r := newReport("E13", "Model efficiency: NNGP vs MLP vs classical estimators (§3.3)",
		"the Bayesian NNGP trains in a single solve — far faster than the MLP — while matching its accuracy and beating the histogram on correlated data")
	tb, err := newCardTestbed(seed, 8000, 600, 150)
	if err != nil {
		return nil, err
	}
	fact := tb.sch.Cat.Table(tb.sch.FactID)
	hist := &cardest.HistEstimator{Table: fact}
	sample := cardest.NewSampleEstimator(fact, 2000)
	mlp := cardest.NewMLPEstimator(tb.f, []int{32, 16}, mlmath.NewRNG(seed+1))
	mlp.Train(tb.trainQ, tb.trainY, 120)
	nngp := cardest.NewNNGP(tb.f, 1e-2)
	if err := nngp.Train(tb.trainQ, tb.trainY); err != nil {
		return nil, err
	}
	r.rowf("%-10s %-10s %-10s %-10s %-10s", "estimator", "q50 all", "q50 corr", "train s", "bytes")
	type entry struct {
		e     cardest.Estimator
		train float64
	}
	for _, en := range []entry{{hist, 0}, {sample, 0}, {mlp, mlp.TrainSeconds}, {nngp, nngp.TrainSeconds}} {
		r.rowf("%-10s %-10.2f %-10.2f %-10.3f %-10d",
			en.e.Name(), tb.medianQErr(en.e, false), tb.medianQErr(en.e, true), en.train, en.e.SizeBytes())
	}
	holdsSpeed := nngp.TrainSeconds < mlp.TrainSeconds
	holdsAcc := tb.medianQErr(nngp, true) < tb.medianQErr(hist, true)
	r.Holds = holdsSpeed && holdsAcc
	r.Metrics["nngp_train_s"] = nngp.TrainSeconds
	r.Metrics["mlp_train_s"] = mlp.TrainSeconds
	return r, nil
}

// E14 measures degradation under data+workload drift and recovery through
// the Warper-style adapter.
func E14(seed uint64) (*Report, error) {
	r := newReport("E14", "Data & workload shift: degradation and adaptation (§3.3)",
		"a learned estimator degrades under drift; monitoring + retraining recovers its accuracy automatically")
	tb, err := newCardTestbed(seed, 8000, 600, 10)
	if err != nil {
		return nil, err
	}
	rng := mlmath.NewRNG(seed + 2)
	mlp := cardest.NewMLPEstimator(tb.f, []int{32, 16}, rng)
	mlp.Train(tb.trainQ, tb.trainY, 120)
	ad := cardest.NewDriftAdapter(mlp)
	ad.Window = 30
	fact := tb.sch.Cat.Table(tb.sch.FactID)

	// Phase 1: stationary workload.
	gen := workload.NewStarGen(tb.sch, rng)
	var stationary []float64
	const n = 1e6
	for i := 0; i < 40; i++ {
		preds := gen.SelectionQuery(2, true).Filters[0]
		truth := cardest.TrueFraction(fact, preds)
		stationary = append(stationary, mlmath.QError(ad.EstimateFraction(preds)*n, truth*n))
	}
	// Phase 2: inject data + workload drift, observe with adaptation.
	if err := workload.InjectDataDrift(tb.sch, rng, 8000, 900); err != nil {
		return nil, err
	}
	gen.CenterShift = 400
	var preAdapt, postAdapt []float64
	for i := 0; i < 160; i++ {
		preds := gen.SelectionQuery(2, true).Filters[0]
		truth := cardest.TrueFraction(fact, preds)
		qe := mlmath.QError(ad.EstimateFraction(preds)*n, truth*n)
		// Retrained candidates shadow the incumbent before serving; the model
		// answering queries only changes at promotion, so the adaptation
		// phases split on the first promotion, not the first retraining.
		if promotions, _, _ := ad.Rollout().Stats(); promotions == 0 {
			preAdapt = append(preAdapt, qe)
		} else {
			postAdapt = append(postAdapt, qe)
		}
		ad.Observe(preds, truth)
	}
	r.rowf("%-26s %-10s", "phase", "median q-error")
	r.rowf("%-26s %-10.2f", "stationary", mlmath.Median(stationary))
	r.rowf("%-26s %-10.2f", "under drift (pre-adapt)", mlmath.Median(preAdapt))
	r.rowf("%-26s %-10.2f", "after adaptation", mlmath.Median(postAdapt))
	promotions, rejections, _ := ad.Rollout().Stats()
	r.rowf("retrainings: %d  promotions: %d  rejections: %d",
		ad.Retrainings, promotions, rejections)
	r.Holds = ad.Retrainings > 0 && promotions > 0 &&
		mlmath.Median(preAdapt) > mlmath.Median(stationary) &&
		mlmath.Median(postAdapt) < mlmath.Median(preAdapt)
	r.Metrics["promotions"] = float64(promotions)
	r.Metrics["pre_adapt_q50"] = mlmath.Median(preAdapt)
	r.Metrics["post_adapt_q50"] = mlmath.Median(postAdapt)
	return r, nil
}

// pretrainCorpus builds the multi-schema pretraining corpus.
func pretrainCorpus(seed uint64, perSchema int) ([]pretrain.Sample, int, error) {
	rng := mlmath.NewRNG(seed)
	shapes := []struct{ fact, dim, dims int }{
		{2000, 100, 2}, {4000, 200, 3}, {1500, 80, 2},
	}
	var all []pretrain.Sample
	featDim := 0
	for _, sh := range shapes {
		sch, err := datagen.NewStarSchema(rng, sh.fact, sh.dim, sh.dims)
		if err != nil {
			return nil, 0, err
		}
		featDim = planrep.NewPlanEncoder(sch.Cat, planrep.TransferFeatures()).FeatDim()
		ss, err := pretrain.BuildSamples(sch, rng, perSchema)
		if err != nil {
			return nil, 0, err
		}
		all = append(all, ss...)
	}
	return all, featDim, nil
}

// E15 compares few-shot fine-tuning of the pretrained multi-task model
// against training from scratch on a new database.
func E15(seed uint64) (*Report, error) {
	r := newReport("E15", "Foundation models: pretrain + few-shot transfer (§3.3)",
		"a model pretrained across databases with database-agnostic features adapts to a new database from few examples, beating from-scratch training")
	samples, featDim, err := pretrainCorpus(seed, 8)
	if err != nil {
		return nil, err
	}
	pre := pretrain.NewModel(featDim, 12, mlmath.NewRNG(seed+3))
	pre.Train(samples, 20, 3e-3, false)

	rng := mlmath.NewRNG(seed + 4)
	sch, err := datagen.NewStarSchema(rng, 6000, 300, 3)
	if err != nil {
		return nil, err
	}
	target, err := pretrain.BuildSamples(sch, rng, 12)
	if err != nil {
		return nil, err
	}
	r.rowf("%-8s %-18s %-18s", "k-shot", "pretrained MAE", "from-scratch MAE")
	holds := true
	for _, k := range []int{8, 16, 32} {
		if k >= len(target) {
			break
		}
		few, test := target[:k], target[k:]
		p := clonePretrained(pre, featDim, seed+3, samples)
		p.Train(few, 20, 2e-3, true)
		scratch := pretrain.NewModel(featDim, 12, mlmath.NewRNG(seed+3))
		scratch.Train(few, 20, 2e-3, false)
		pc, _ := p.EvalMAE(test)
		sc, _ := scratch.EvalMAE(test)
		r.rowf("%-8d %-18.3f %-18.3f", k, pc, sc)
		if pc >= sc {
			holds = false
		}
	}
	r.Holds = holds
	return r, nil
}

// clonePretrained retrains a fresh pretrained model identically (cheap way
// to get an independent copy per k without a serializer).
func clonePretrained(_ *pretrain.Model, featDim int, seed uint64, samples []pretrain.Sample) *pretrain.Model {
	m := pretrain.NewModel(featDim, 12, mlmath.NewRNG(seed))
	m.Train(samples, 20, 3e-3, false)
	return m
}

// E16 evaluates SAM-style workload-aware database generation.
func E16(seed uint64) (*Report, error) {
	r := newReport("E16", "Training-data generation from workloads (§3.3)",
		"a database generated only from (query, cardinality) supervision reproduces the hidden database's workload behavior")
	rng := mlmath.NewRNG(seed)
	sch, err := datagen.NewStarSchema(rng, 8000, 100, 2)
	if err != nil {
		return nil, err
	}
	fact := sch.Cat.Table(sch.FactID)
	gen := workload.NewStarGen(sch, rng)
	cols := [2]int{sch.AttrCols[0], sch.AttrCols[1]}
	var cs []samgen.Constraint
	for len(cs) < 240 {
		preds := gen.SelectionQuery(2, true).Filters[0]
		ok := true
		for _, p := range preds {
			if p.Col != cols[0] && p.Col != cols[1] {
				ok = false
			}
		}
		if !ok {
			continue
		}
		cs = append(cs, samgen.Constraint{Preds: preds, Fraction: cardest.TrueFraction(fact, preds)})
	}
	g := samgen.NewGenerator(cols, 1000, 32)
	if err := g.Fit(cs[:200], 8); err != nil {
		return nil, err
	}
	synth := g.Generate(rng, 8000)
	uniform := samgen.NewGenerator(cols, 1000, 32).Generate(rng, 8000)
	medianQ := func(tab *catalog.Table) float64 {
		var qs []float64
		const n = 1e6
		for _, c := range cs[200:] {
			frac := cardest.TrueFraction(tab, g.RemapPreds(c.Preds))
			qs = append(qs, mlmath.QError(frac*n, c.Fraction*n))
		}
		return mlmath.Median(qs)
	}
	qSynth, qUniform := medianQ(synth), medianQ(uniform)
	r.rowf("%-22s %-18s", "database", "held-out q-error")
	r.rowf("%-22s %-18.2f", "uniform (uninformed)", qUniform)
	r.rowf("%-22s %-18.2f", "workload-generated", qSynth)
	r.Holds = qSynth < qUniform && qSynth < 4
	r.Metrics["synth_q50"] = qSynth
	r.Metrics["uniform_q50"] = qUniform
	return r, nil
}

// E20 measures how unsupervised/multi-task pretraining speeds fine-tuning:
// MAE after a fixed small number of adaptation epochs.
func E20(seed uint64) (*Report, error) {
	r := newReport("E20", "Pretraining speeds fine-tuning (§3.1)",
		"after the same few fine-tuning epochs on a new database, the pretrained model is far ahead of a randomly initialized one")
	samples, featDim, err := pretrainCorpus(seed+10, 8)
	if err != nil {
		return nil, err
	}
	rng := mlmath.NewRNG(seed + 11)
	sch, err := datagen.NewStarSchema(rng, 5000, 250, 3)
	if err != nil {
		return nil, err
	}
	target, err := pretrain.BuildSamples(sch, rng, 14)
	if err != nil {
		return nil, err
	}
	cut := len(target) / 2
	adapt, test := target[:cut], target[cut:]
	r.rowf("%-14s %-18s %-18s", "adapt epochs", "pretrained MAE", "scratch MAE")
	holds := true
	for _, epochs := range []int{2, 5, 10} {
		pre := pretrain.NewModel(featDim, 12, mlmath.NewRNG(seed+12))
		pre.Train(samples, 20, 3e-3, false)
		pre.Train(adapt, epochs, 2e-3, false)
		scratch := pretrain.NewModel(featDim, 12, mlmath.NewRNG(seed+12))
		scratch.Train(adapt, epochs, 2e-3, false)
		pc, _ := pre.EvalMAE(test)
		sc, _ := scratch.EvalMAE(test)
		r.rowf("%-14d %-18.3f %-18.3f", epochs, pc, sc)
		if epochs <= 5 && pc >= sc {
			holds = false
		}
	}
	r.Holds = holds
	return r, nil
}
