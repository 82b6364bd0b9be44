package experiments

import (
	"ml4db/internal/mlmath"
	"ml4db/internal/qo"
	"ml4db/internal/qo/autosteer"
	"ml4db/internal/qo/bao"
	"ml4db/internal/qo/leon"
	"ml4db/internal/qo/paramtree"
	"ml4db/internal/sqlkit/datagen"
	"ml4db/internal/sqlkit/exec"
	"ml4db/internal/sqlkit/optimizer"
	"ml4db/internal/sqlkit/plan"
	"ml4db/internal/workload"
)

// qoTestbed builds the standard optimizer testbed.
func qoTestbed(seed uint64, factRows int) (*qo.Env, *workload.StarGen, error) {
	rng := mlmath.NewRNG(seed)
	sch, err := datagen.NewStarSchema(rng, factRows, 150, 3)
	if err != nil {
		return nil, nil, err
	}
	return qo.NewEnv(sch.Cat), workload.NewStarGen(sch, rng), nil
}

// planner is a plan function: a learned optimizer's Plan, or the expert's.
type planner = func(*plan.Query) (*plan.Node, error)

// hinted is the expert optimizer planning under hint set h.
func hinted(env *qo.Env, h optimizer.HintSet) planner {
	return func(q *plan.Query) (*plan.Node, error) { return env.Opt.Plan(q, h) }
}

// totalWork plans every query with p and returns the summed work of
// executing the plans: how the experiments score every planner.
func totalWork(env *qo.Env, queries []*plan.Query, p planner) (int64, error) {
	var total int64
	for _, q := range queries {
		pl, err := p(q)
		if err != nil {
			return 0, err
		}
		w, _, err := env.Run(pl, 0)
		if err != nil {
			return 0, err
		}
		total += w
	}
	return total, nil
}

// E8 measures NEO's robustness: performance on trained templates vs unseen
// templates, against the expert baseline.
func E8(seed uint64) (*Report, error) {
	r := newReport("E8", "Replacement-optimizer robustness: NEO on unseen queries (§3.2)",
		"a learned optimizer trained on limited queries degrades on unseen templates, unlike the expert optimizer")
	env, gen, err := qoTestbed(seed, 3000)
	if err != nil {
		return nil, err
	}
	// Train only on 2-dimension star joins; test on unseen 3-dimension
	// templates. Averaged over three model seeds to damp training noise.
	var train, unseen []*plan.Query
	for i := 0; i < 14; i++ {
		train = append(train, gen.QueryWithDims(2))
	}
	for i := 0; i < 10; i++ {
		unseen = append(unseen, gen.QueryWithDims(3))
	}
	expert := hinted(env, optimizer.NoHint())
	wTrainExpert, err := totalWork(env, train, expert)
	if err != nil {
		return nil, err
	}
	wTestExpert, err := totalWork(env, unseen, expert)
	if err != nil {
		return nil, err
	}
	var trainRatio, testRatio float64
	const reps = 3
	for rep := uint64(0); rep < reps; rep++ {
		n := qo.NewNEO(env, mlmath.NewRNG(seed+1+rep))
		if err := n.TrainOnExpert(train, qo.Work, 30); err != nil {
			return nil, err
		}
		for e := 0; e < 3; e++ {
			if err := n.TrainOnSearch(train, 1, qo.Work, 15); err != nil {
				return nil, err
			}
		}
		wTrain, err := totalWork(env, train, n.Plan)
		if err != nil {
			return nil, err
		}
		wTest, err := totalWork(env, unseen, n.Plan)
		if err != nil {
			return nil, err
		}
		trainRatio += float64(wTrain) / float64(wTrainExpert) / reps
		testRatio += float64(wTest) / float64(wTestExpert) / reps
	}
	r.rowf("%-22s %-18s", "query set", "NEO/expert work (mean of 3 seeds)")
	r.rowf("%-22s %-18.2f", "trained templates", trainRatio)
	r.rowf("%-22s %-18.2f", "unseen templates", testRatio)
	r.Holds = testRatio > trainRatio
	r.Metrics["train_ratio"] = trainRatio
	r.Metrics["test_ratio"] = testRatio
	return r, nil
}

// E9 runs BAO on a workload where the expert's independence assumption
// triggers nested-loop disasters, measuring mean and tail latency.
func E9(seed uint64) (*Report, error) {
	r := newReport("E9", "BAO: bandit-steered optimization (§3.2)",
		"steering the expert with per-query hint sets improves mean and tail latency over the unsteered expert, with minimal training cost")
	env, gen, err := qoTestbed(seed, 6000)
	if err != nil {
		return nil, err
	}
	rng := mlmath.NewRNG(seed + 2)
	b := bao.New(env, optimizer.StandardHintSets(), rng)
	mix := func() *plan.Query {
		if rng.Float64() < 0.5 {
			return gen.CorrelatedJoinQuery(2)
		}
		return gen.QueryWithDims(2)
	}
	// Warmup: BAO learns online.
	for i := 0; i < 60; i++ {
		if _, _, err := b.RunQuery(mix()); err != nil {
			return nil, err
		}
	}
	var baoW, expW []float64
	for i := 0; i < 60; i++ {
		w, we, _, err := b.RunQueryCompared(mix())
		if err != nil {
			return nil, err
		}
		baoW = append(baoW, float64(w))
		expW = append(expW, float64(we))
	}
	sb, se := mlmath.Summarize(baoW), mlmath.Summarize(expW)
	r.rowf("%-10s %-12s %-12s %-12s", "optimizer", "mean work", "p95 work", "p99 work")
	r.rowf("%-10s %-12.0f %-12.0f %-12.0f", "expert", se.Mean, se.P95, se.P99)
	r.rowf("%-10s %-12.0f %-12.0f %-12.0f", "bao", sb.Mean, sb.P95, sb.P99)
	r.rowf("training cost: %d executed queries (no offline corpus)", b.Queries)
	r.Holds = sb.Mean < se.Mean && sb.P95 <= se.P95
	r.Metrics["mean_ratio"] = sb.Mean / se.Mean
	r.Metrics["p95_ratio"] = sb.P95 / se.P95
	return r, nil
}

// E10 compares AutoSteer's discovered hint sets against BAO's hand-crafted
// collection.
func E10(seed uint64) (*Report, error) {
	r := newReport("E10", "AutoSteer: automatic hint-set discovery (§3.2)",
		"greedy knob exploration discovers a hint-set collection matching the hand-crafted one, removing the per-system integration cost")
	env, gen, err := qoTestbed(seed, 6000)
	if err != nil {
		return nil, err
	}
	var discoverQ []*plan.Query
	for i := 0; i < 6; i++ {
		discoverQ = append(discoverQ, gen.CorrelatedJoinQuery(2))
	}
	discovered, err := autosteer.DiscoverForWorkload(env, discoverQ, 2, 8)
	if err != nil {
		return nil, err
	}
	r.rowf("discovered %d hint sets (hand-crafted collection has %d):", len(discovered), len(optimizer.StandardHintSets()))
	for _, h := range discovered {
		r.rowf("  %s", h.Name)
	}
	run := func(hints []optimizer.HintSet, s uint64) (float64, error) {
		b := bao.New(env, hints, mlmath.NewRNG(s))
		g := workload.NewStarGen(gen.Schema, mlmath.NewRNG(s+10))
		var total int64
		for i := 0; i < 80; i++ {
			var q *plan.Query
			if i%2 == 0 {
				q = g.CorrelatedJoinQuery(2)
			} else {
				q = g.QueryWithDims(2)
			}
			w, _, err := b.RunQuery(q)
			if err != nil {
				return 0, err
			}
			if i >= 40 {
				total += w
			}
		}
		return float64(total), nil
	}
	wAuto, err := run(discovered, seed+4)
	if err != nil {
		return nil, err
	}
	wHand, err := run(optimizer.StandardHintSets(), seed+4)
	if err != nil {
		return nil, err
	}
	r.rowf("post-warmup steered work: discovered=%.0f hand-crafted=%.0f (ratio %.2f)", wAuto, wHand, wAuto/wHand)
	r.Holds = len(discovered) >= 2 && wAuto <= 1.25*wHand
	r.Metrics["work_ratio"] = wAuto / wHand
	return r, nil
}

// E11 compares LEON's mixed ranking against pure expert and pure learned.
func E11(seed uint64) (*Report, error) {
	r := newReport("E11", "LEON: mixed expert+learned plan ranking (§3.2)",
		"the pairwise-trained mixture ranks candidate plans at least as well as the expert cost model alone, with a safe fallback")
	env, gen, err := qoTestbed(seed, 4000)
	if err != nil {
		return nil, err
	}
	l := leon.New(env, 12, mlmath.NewRNG(seed+5))
	var train, test []*plan.Query
	for i := 0; i < 14; i++ {
		if i%2 == 0 {
			train = append(train, gen.CorrelatedJoinQuery(2))
		} else {
			train = append(train, gen.QueryWithDims(2))
		}
	}
	for i := 0; i < 8; i++ {
		if i%2 == 0 {
			test = append(test, gen.CorrelatedJoinQuery(2))
		} else {
			test = append(test, gen.QueryWithDims(2))
		}
	}
	if err := l.Train(train, 6); err != nil {
		return nil, err
	}
	accE, err := l.RankAccuracy(test, leon.ScoreExpert)
	if err != nil {
		return nil, err
	}
	accL, err := l.RankAccuracy(test, leon.ScoreLearned)
	if err != nil {
		return nil, err
	}
	accM, err := l.RankAccuracy(test, leon.ScoreMixed)
	if err != nil {
		return nil, err
	}
	r.rowf("%-10s %-10s", "ranking", "pair acc")
	r.rowf("%-10s %-10.3f", "expert", accE)
	r.rowf("%-10s %-10.3f", "learned", accL)
	r.rowf("%-10s %-10.3f", "mixed", accM)
	r.rowf("calibration %.3f; fallback active: %v", l.Calibrated, l.UsesFallback())
	r.Holds = accM >= accE-0.02 && accM >= 0.5
	r.Metrics["mixed_acc"] = accM
	r.Metrics["expert_acc"] = accE
	return r, nil
}

// E12 evaluates ParamTree's cost-model calibration under two hardware
// configurations.
func E12(seed uint64) (*Report, error) {
	r := newReport("E12", "ParamTree: learned cost-model parameters (§3.2)",
		"tuning the formula cost model's R-params from observations makes it predict latency accurately — no need to start from scratch")
	env, gen, err := qoTestbed(seed, 3000)
	if err != nil {
		return nil, err
	}
	for _, hw := range []paramtree.Hardware{paramtree.DefaultHardware(), paramtree.MemoryRichHardware()} {
		var obs []paramtree.Observation
		for len(obs) < 100 {
			q := gen.Query()
			for _, h := range optimizer.StandardHintSets() {
				p, err := env.Opt.Plan(q, h)
				if err != nil {
					return nil, err
				}
				res, err := env.Exec.Execute(p, exec.Options{Output: exec.CountOnly})
				if err != nil {
					return nil, err
				}
				obs = append(obs, paramtree.Observation{Counters: res.Counters, Latency: hw.Latency(res.Counters)})
			}
		}
		tuned, err := paramtree.Fit(obs[:80], 1e-3)
		if err != nil {
			return nil, err
		}
		test := obs[80:]
		errTuned := paramtree.PredictionError(tuned, test)
		errDefault := paramtree.PredictionError(optimizer.DefaultCostParams(), test)
		r.rowf("hardware %-12s: default-params rel.err %.3f, tuned rel.err %.4f", hw.Name, errDefault, errTuned)
		if errTuned >= errDefault || errTuned > 0.05 {
			r.Holds = false
			return r, nil
		}
	}
	r.Holds = true
	return r, nil
}

// E17 evaluates Balsa's sim-to-real training and timeout safety.
func E17(seed uint64) (*Report, error) {
	r := newReport("E17", "Balsa: learning without expert demonstrations (§3.3)",
		"simulation bootstrapping avoids disastrous plans before any execution, and the safety timeout bounds fine-tuning cost")
	env, gen, err := qoTestbed(seed, 3000)
	if err != nil {
		return nil, err
	}
	b := qo.NewBalsa(env, mlmath.NewRNG(seed+6))
	var train []*plan.Query
	for i := 0; i < 10; i++ {
		train = append(train, gen.QueryWithDims(2))
	}
	if err := b.TrainOnSearch(train, 8, qo.EstCost, 30); err != nil {
		return nil, err
	}
	wSim, err := totalWork(env, train, b.Plan)
	if err != nil {
		return nil, err
	}
	wExpert, err := totalWork(env, train, hinted(env, optimizer.NoHint()))
	if err != nil {
		return nil, err
	}
	wWorst, err := totalWork(env, train, hinted(env, optimizer.HintSet{Name: "nl", JoinOps: []plan.OpType{plan.OpNLJoin}}))
	if err != nil {
		return nil, err
	}
	if err := b.TrainOnSearch(train, 3, qo.Work, 10); err != nil {
		return nil, err
	}
	wTuned, err := totalWork(env, train, b.Plan)
	if err != nil {
		return nil, err
	}
	r.rowf("%-22s %-12s", "policy", "total work")
	r.rowf("%-22s %-12d", "worst (all-NL)", wWorst)
	r.rowf("%-22s %-12d", "sim-only balsa", wSim)
	r.rowf("%-22s %-12d", "fine-tuned balsa", wTuned)
	r.rowf("%-22s %-12d", "expert", wExpert)
	r.rowf("executions stopped by safety timeout during fine-tune: %d", b.TimedOut)
	r.Holds = wSim < wWorst && wTuned < wWorst && float64(wTuned) <= 3*float64(wExpert)
	r.Metrics["sim_over_expert"] = float64(wSim) / float64(wExpert)
	r.Metrics["tuned_over_expert"] = float64(wTuned) / float64(wExpert)
	return r, nil
}

// E18 quantifies NEO's expert-bootstrap benefit against a cold-started twin.
func E18(seed uint64) (*Report, error) {
	r := newReport("E18", "NEO: value network bootstrapped from the expert (§3.2)",
		"bootstrapping from expert plans yields far better plans than cold-start RL with the same budget")
	env, gen, err := qoTestbed(seed, 3000)
	if err != nil {
		return nil, err
	}
	// 3-dimension joins give the search a real plan space, so a random
	// value network cannot stumble into good plans; averaged over three
	// model seeds.
	var train []*plan.Query
	for i := 0; i < 12; i++ {
		train = append(train, gen.QueryWithDims(3))
	}
	var wBoot, wCold int64
	const reps = 3
	for rep := uint64(0); rep < reps; rep++ {
		boot := qo.NewNEO(env, mlmath.NewRNG(seed+7+rep))
		if err := boot.TrainOnExpert(train, qo.Work, 25); err != nil {
			return nil, err
		}
		cold := qo.NewNEO(env, mlmath.NewRNG(seed+7+rep))
		wb, err := totalWork(env, train, boot.Plan)
		if err != nil {
			return nil, err
		}
		wc, err := totalWork(env, train, cold.Plan)
		if err != nil {
			return nil, err
		}
		wBoot, wCold = wBoot+wb, wCold+wc
	}
	r.rowf("%-16s %-12s", "policy", "total work (3 seeds)")
	r.rowf("%-16s %-12d", "cold start", wCold)
	r.rowf("%-16s %-12d", "bootstrapped", wBoot)
	r.Holds = wBoot < wCold
	r.Metrics["boot_over_cold"] = float64(wBoot) / float64(wCold)
	return r, nil
}

// E19 traces RTOS's two-phase curriculum.
func E19(seed uint64) (*Report, error) {
	r := newReport("E19", "RTOS: TreeLSTM join-order RL with cost+latency feedback (§3.2)",
		"cheap cost-estimate training converges the policy, and latency fine-tuning keeps or improves it")
	rng := mlmath.NewRNG(seed + 8)
	sch, err := datagen.NewChainSchema(rng, []int{2500, 2000, 1200, 600, 400})
	if err != nil {
		return nil, err
	}
	env := qo.NewEnv(sch.Cat)
	gen := workload.NewChainGen(sch, rng)
	var train []*plan.Query
	for i := 0; i < 8; i++ {
		train = append(train, gen.Query(4))
	}
	rt := qo.NewRTOS(env, mlmath.NewRNG(seed+9))
	wCold, err := totalWork(env, train, rt.Plan)
	if err != nil {
		return nil, err
	}
	if err := rt.TrainOnExpert(train, qo.EstCost, 35); err != nil {
		return nil, err
	}
	wCost, err := totalWork(env, train, rt.Plan)
	if err != nil {
		return nil, err
	}
	if err := rt.TrainOnSearch(train, 3, qo.Work, 20); err != nil {
		return nil, err
	}
	wLat, err := totalWork(env, train, rt.Plan)
	if err != nil {
		return nil, err
	}
	wExpert, err := totalWork(env, train, hinted(env, optimizer.NoHint()))
	if err != nil {
		return nil, err
	}
	r.rowf("%-22s %-12s", "phase", "total work")
	r.rowf("%-22s %-12d", "cold", wCold)
	r.rowf("%-22s %-12d", "after cost phase", wCost)
	r.rowf("%-22s %-12d", "after latency phase", wLat)
	r.rowf("%-22s %-12d", "expert", wExpert)
	r.Holds = float64(wLat) <= 1.02*float64(wCost) && float64(wCost) <= 1.02*float64(wCold)
	r.Metrics["final_over_expert"] = float64(wLat) / float64(wExpert)
	return r, nil
}
