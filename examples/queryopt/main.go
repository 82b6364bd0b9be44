// Query-optimizer tour: the replacement vs ML-enhanced paradigms side by
// side. Trains a NEO-style end-to-end learned optimizer and compares it with
// BAO steering and the ParamTree-calibrated expert on the same workload —
// the §3.2 narrative as running code.
//
//	go run ./examples/queryopt
package main

import (
	"fmt"
	"log"

	"ml4db/internal/mlmath"
	"ml4db/internal/qo"
	"ml4db/internal/qo/bao"
	"ml4db/internal/qo/neo"
	"ml4db/internal/qo/paramtree"
	"ml4db/internal/sqlkit/datagen"
	"ml4db/internal/sqlkit/exec"
	"ml4db/internal/sqlkit/optimizer"
	"ml4db/internal/sqlkit/plan"
	"ml4db/internal/workload"
)

func main() {
	rng := mlmath.NewRNG(21)
	sch, err := datagen.NewStarSchema(rng, 5000, 150, 3)
	if err != nil {
		log.Fatal(err)
	}
	env := qo.NewEnv(sch.Cat)
	gen := workload.NewStarGen(sch, rng)

	var train []*plan.Query
	for i := 0; i < 12; i++ {
		train = append(train, gen.QueryWithDims(2))
	}

	// Replacement: NEO learns to build complete plans itself.
	n := neo.New(env, neo.Config{Hidden: 12}, rng)
	if err := n.Bootstrap(train, 25); err != nil {
		log.Fatal(err)
	}
	if err := n.Episode(train, 12); err != nil {
		log.Fatal(err)
	}

	// ML-enhanced: BAO steers the expert; warm it up online.
	steered := bao.New(env, optimizer.StandardHintSets(), rng)
	for i := 0; i < 50; i++ {
		if _, _, err := steered.RunQuery(gen.QueryWithDims(2)); err != nil {
			log.Fatal(err)
		}
	}

	// ML-enhanced: ParamTree calibrates the expert's cost constants.
	var obs []paramtree.Observation
	for _, q := range train {
		for _, h := range optimizer.StandardHintSets() {
			p, err := env.Opt.Plan(q, h)
			if err != nil {
				log.Fatal(err)
			}
			res, err := env.Exec.Execute(p, exec.Options{Output: exec.CountOnly})
			if err != nil {
				log.Fatal(err)
			}
			obs = append(obs, paramtree.Observation{Counters: res.Counters, Latency: float64(res.Work)})
		}
	}
	tuned, err := paramtree.Fit(obs, 1e-3)
	if err != nil {
		log.Fatal(err)
	}
	tunedOpt := optimizer.New(sch.Cat)
	tunedOpt.Cost = tuned

	// Evaluate all four on fresh queries.
	var wExpert, wNeo, wBao, wTuned int64
	const m = 15
	for i := 0; i < m; i++ {
		q := gen.QueryWithDims(2)
		pe, err := env.Opt.Plan(q, optimizer.NoHint())
		if err != nil {
			log.Fatal(err)
		}
		we, _, _ := env.Run(pe, 0)
		wExpert += we
		pn, err := n.Plan(q)
		if err != nil {
			log.Fatal(err)
		}
		wn, _, _ := env.Run(pn, 0)
		wNeo += wn
		pb, _, err := steered.SelectPlan(q)
		if err != nil {
			log.Fatal(err)
		}
		wb, _, _ := env.Run(pb, 0)
		wBao += wb
		pt, err := tunedOpt.Plan(q, optimizer.NoHint())
		if err != nil {
			log.Fatal(err)
		}
		wt, _, _ := env.Run(pt, 0)
		wTuned += wt
	}
	fmt.Printf("%-28s %-12s\n", "optimizer", "total work")
	fmt.Printf("%-28s %-12d\n", "expert (untuned params)", wExpert)
	fmt.Printf("%-28s %-12d\n", "NEO (replacement)", wNeo)
	fmt.Printf("%-28s %-12d\n", "BAO (steered expert)", wBao)
	fmt.Printf("%-28s %-12d\n", "expert + ParamTree", wTuned)
}
