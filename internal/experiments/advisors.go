package experiments

import (
	"ml4db/internal/advisor"
	"ml4db/internal/mlmath"
	"ml4db/internal/qo/lemo"
	"ml4db/internal/qo/paramtree"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/optimizer"
	"ml4db/internal/sqlkit/plan"
	"ml4db/internal/views"
)

// E21 evaluates the learned index advisor against the classical what-if
// advisor on hardware whose random-access cost the cost model does not
// capture.
func E21(seed uint64) (*Report, error) {
	r := newReport("E21", "Learned index advisor (AIMeetsAI, intro)",
		"leveraging query executions corrects what-if benefit estimates: the learned ranking's top-k configuration is at least as fast as the what-if ranking's")
	env, gen, err := qoTestbed(seed, 8000)
	if err != nil {
		return nil, err
	}
	var wl []*plan.Query
	for i := 0; i < 25; i++ {
		switch i % 3 {
		case 0:
			wl = append(wl, gen.SelectionQuery(2, false))
		case 1:
			wl = append(wl, gen.SelectionQuery(1, false))
		default:
			wl = append(wl, gen.QueryWithDims(1+i%2))
		}
	}
	a := advisor.New(env, paramtree.MemoryRichHardware())
	cands := advisor.EnumerateCandidates(env.Cat, wl)
	r.rowf("candidates: %d; hardware: %s (index fetches 4x)", len(cands), a.Hardware.Name)

	base, err := a.EvaluateConfig(nil, wl)
	if err != nil {
		return nil, err
	}
	model, err := a.Train(cands, wl)
	if err != nil {
		return nil, err
	}
	wiRank, err := a.RankWhatIf(cands, wl)
	if err != nil {
		return nil, err
	}
	leRank, err := a.RankLearned(model, cands, wl)
	if err != nil {
		return nil, err
	}
	const k = 2
	wiLat, err := a.EvaluateConfig(wiRank[:k], wl)
	if err != nil {
		return nil, err
	}
	leLat, err := a.EvaluateConfig(leRank[:k], wl)
	if err != nil {
		return nil, err
	}
	r.rowf("%-26s %-14s", "configuration", "workload latency")
	r.rowf("%-26s %-14.0f", "no indexes", base)
	r.rowf("%-26s %-14.0f  (%v)", "what-if top-2", wiLat, wiRank[:k])
	r.rowf("%-26s %-14.0f  (%v)", "learned top-2", leLat, leRank[:k])
	r.Holds = leLat <= wiLat*1.02 && leLat < base
	r.Metrics["learned_over_whatif"] = leLat / wiLat
	r.Metrics["learned_over_base"] = leLat / base
	return r, nil
}

// E22 evaluates the Lemo-style plan cache under a concurrent template
// stream.
func E22(seed uint64) (*Report, error) {
	r := newReport("E22", "Lemo: cache-enhanced optimization for concurrent queries (§3.2 corpus)",
		"a learned reuse policy amortizes planning cost over repeated templates, beating always-reoptimizing while staying close to the per-query best")
	env, gen, err := qoTestbed(seed, 4000)
	if err != nil {
		return nil, err
	}
	sch := gen.Schema
	rng := mlmath.NewRNG(seed + 2)
	const penalty = 4000
	// A concurrent stream over three templates with varying constants.
	mkQuery := func(i int) *plan.Query {
		tmpl := i % 3
		q := plan.NewQuery(sch.FactID, sch.DimIDs[tmpl])
		q.AddJoin(expr.JoinCond{LeftTable: 0, LeftCol: sch.FKCol[tmpl], RightTable: 1, RightCol: 0})
		center := int64(150 + rng.Intn(700))
		q.AddFilter(0, expr.Pred{Col: sch.AttrCols[tmpl], Op: expr.BETWEEN, Lo: center - 60, Hi: center + 60})
		return q
	}
	queries := make([]*plan.Query, 120)
	for i := range queries {
		queries[i] = mkQuery(i)
	}
	l := lemo.New(env, penalty, mlmath.NewRNG(seed+3))
	var lemoCost float64
	for _, q := range queries {
		c, _, err := l.Run(q)
		if err != nil {
			return nil, err
		}
		lemoCost += c
	}
	reoptWork, err := totalWork(env, queries, hinted(env, optimizer.NoHint()))
	if err != nil {
		return nil, err
	}
	reoptCost := float64(reoptWork + penalty*int64(len(queries)))
	r.rowf("%-22s %-14s", "policy", "total cost")
	r.rowf("%-22s %-14.0f", "always re-optimize", reoptCost)
	r.rowf("%-22s %-14.0f", "lemo", lemoCost)
	r.rowf("decisions: %d reuses, %d reopts, %d cold misses (cache %d templates)",
		l.Reuses, l.Reopts, l.Misses, l.CacheSize())
	r.Holds = lemoCost < reoptCost && l.Reuses > l.Reopts
	r.Metrics["lemo_over_reopt"] = lemoCost / reoptCost
	return r, nil
}

// E24 evaluates the materialized-view advisor (AVGDL's application).
func E24(seed uint64) (*Report, error) {
	r := newReport("E24", "Learned view selection (AVGDL, Table 1 application)",
		"selecting materialized views by measured benefit per byte under a storage budget reduces workload cost; rewritten queries stay correct")
	env, gen, err := qoTestbed(seed, 6000)
	if err != nil {
		return nil, err
	}
	var wl []*plan.Query
	for i := 0; i < 30; i++ {
		wl = append(wl, gen.QueryWithDims(1+i%2))
	}
	a := views.New(env)
	cands := views.EnumerateCandidates(wl)
	if len(cands) > 3 {
		cands = cands[:3]
	}
	base, err := a.WorkloadWork(wl, nil)
	if err != nil {
		return nil, err
	}
	chosen, err := a.Select(cands, wl, 64<<20)
	if err != nil {
		return nil, err
	}
	with, err := a.WorkloadWork(wl, chosen)
	if err != nil {
		return nil, err
	}
	r.rowf("%-22s %-14s", "configuration", "workload work")
	r.rowf("%-22s %-14d", "no views", base)
	r.rowf("%-22s %-14d  (%d views selected)", "advisor-selected", with, len(chosen))
	for _, v := range chosen {
		r.rowf("  %s → %d KiB", v.Cand, v.SizeBytes(env.Cat)/1024)
	}
	r.Holds = len(chosen) > 0 && with < base
	r.Metrics["work_ratio"] = float64(with) / float64(base)
	return r, nil
}
