package main

// The autopilot suite drives the internal/autopilot self-driving loop end to
// end on live telemetry.
//
//   - beneficial adoption: a scan-heavy skewed workload runs through a real
//     engine with the querystore attached; the autopilot must mine it,
//     adopt the secondary index, measurably reduce observed per-call work,
//     and confirm the adoption through its shadow trial (StageKept). The
//     same scenario plants an unselective statement whose index candidate
//     must be rejected at the what-if gate (StageRejected);
//   - canary revert: a join workload over tables with stale join-key
//     statistics makes a materialized view look like a big estimated win
//     (the estimator puts the join orders of magnitude under its true
//     size); the autopilot adopts it, the shadow trial observes the
//     regression over the next querystore windows, and the view must be
//     auto-dropped (StageDropped) with queries returning identical results
//     throughout;
//   - replayable decisions: both scenarios re-run from scratch under fresh
//     mlmath.ManualClocks must export byte-identical TuningEvent JSONL
//     (the first run's two ledgers are published as tuning.jsonl for
//     cmd/ml4db-tracecheck to revalidate);
//   - queryable ledger: `SELECT * FROM sys_tuning` through the normal
//     planner/executor must return exactly the ledger.
//
// Any violated contract fails the suite; check.sh runs the -quick variant as
// a smoke test.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"time"

	"ml4db/internal/autopilot"
	"ml4db/internal/engine"
	"ml4db/internal/mlmath"
	"ml4db/internal/querystore"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/datagen"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/plan"
)

type autopilotReport struct {
	IndexAdopted    bool    `json:"index_adopted"`
	IndexKept       bool    `json:"index_kept"`
	IndexTarget     string  `json:"index_target"`
	PreWorkPerCall  float64 `json:"pre_work_per_call"`
	PostWorkPerCall float64 `json:"post_work_per_call"`
	WorkReduction   float64 `json:"work_reduction"`
	Rejected        int     `json:"rejected_candidates"`

	HarmfulAdopted  bool    `json:"harmful_adopted"`
	HarmfulDropped  bool    `json:"harmful_dropped"`
	HarmfulTarget   string  `json:"harmful_target"`
	HarmfulBaseline float64 `json:"harmful_baseline_wpc"`
	HarmfulObserved float64 `json:"harmful_observed_wpc"`
	ResultsStable   bool    `json:"results_stable"`

	Events          int  `json:"events"`
	ReplayIdentical bool `json:"replay_identical"`
	SysTuningRows   int  `json:"sys_tuning_rows"`
	SysTuningOK     bool `json:"sys_tuning_ok"`
}

// autopilotRig wires one tuning stack on a manual clock.
type autopilotRig struct {
	cat  *catalog.Catalog
	eng  *engine.Engine
	ap   *autopilot.Autopilot
	mc   *mlmath.ManualClock
	sess *engine.Session
}

func newAutopilotRig(cat *catalog.Catalog, buildCostWeight float64) (*autopilotRig, error) {
	mc := &mlmath.ManualClock{T: time.Unix(0, 0)}
	store := querystore.New(querystore.Options{Clock: mc, Catalog: cat, Window: time.Second})
	eng := engine.New(cat, engine.Options{Store: store})
	ap, err := autopilot.New(autopilot.Options{
		Clock: mc, Store: store, Host: eng,
		Interval: time.Second, MinWinFrac: 0.02, BuildCostWeight: buildCostWeight, VerifyWindows: 2,
	})
	if err != nil {
		return nil, err
	}
	if err := autopilot.RegisterTuningView(cat, ap); err != nil {
		return nil, err
	}
	return &autopilotRig{cat: cat, eng: eng, ap: ap, mc: mc, sess: eng.Session()}, nil
}

// runN runs q n times, stepping the clock before each call; returns total
// work and the last row count.
func (r *autopilotRig) runN(q *plan.Query, n int, step time.Duration) (int64, int, error) {
	var work int64
	rows := 0
	for i := 0; i < n; i++ {
		r.mc.Advance(step)
		res, err := r.sess.Run(q)
		if err != nil {
			return 0, 0, err
		}
		work += res.Work
		rows = len(res.Rows)
	}
	return work, rows, nil
}

// ledger exports the rig's TuningEvent ledger as JSONL.
func (r *autopilotRig) ledger() ([]byte, error) {
	var buf bytes.Buffer
	err := r.ap.WriteEventsJSONL(&buf)
	return buf.Bytes(), err
}

// indexScenario is the beneficial-adoption path: a selective statement the
// index must serve, plus an unselective one whose candidate must be gated
// out. It mutates rep and returns the exported event ledger.
func indexScenario(seed uint64, rows, calls int, rep *autopilotReport) ([]byte, error) {
	tbl, err := datagen.GenTable(mlmath.NewRNG(seed), "events", rows, []datagen.ColSpec{
		{Name: "id", Kind: datagen.Sequential},
		{Name: "attr", Kind: datagen.Uniform, Domain: 1000},
		{Name: "wide", Kind: datagen.Uniform, Domain: 1000},
	})
	if err != nil {
		return nil, err
	}
	cat := catalog.NewCatalog()
	cat.MustAdd(tbl)
	cat.AnalyzeAll(32, 512)
	// Half a work unit per row-touch of build cost: the hot statement's win
	// clears it easily, the unselective one's cannot.
	r, err := newAutopilotRig(cat, 0.5)
	if err != nil {
		return nil, err
	}

	hot := plan.NewQuery(0)
	hot.AddFilter(0, expr.Pred{Col: 1, Op: expr.BETWEEN, Lo: 500, Hi: 509})
	cold := plan.NewQuery(0)
	cold.AddFilter(0, expr.Pred{Col: 2, Op: expr.BETWEEN, Lo: 0, Hi: 999}) // keeps every row: its index can't pay for itself

	preWork, preRows, err := r.runN(hot, calls, 50*time.Millisecond)
	if err != nil {
		return nil, err
	}
	if _, _, err := r.runN(cold, 3, 50*time.Millisecond); err != nil {
		return nil, err
	}
	evs, err := r.ap.Tick()
	if err != nil {
		return nil, err
	}
	for _, e := range evs {
		fmt.Printf("  event: %s %s %s net_win=%.0f\n", e.Stage, e.Kind, e.Target, e.NetWin)
		switch e.Stage {
		case autopilot.StageAdopted:
			if e.Kind == autopilot.KindIndex {
				rep.IndexAdopted = true
				rep.IndexTarget = e.Target
			}
		case autopilot.StageRejected:
			rep.Rejected++
		}
	}
	postWork, postRows, err := r.runN(hot, calls, 300*time.Millisecond)
	if err != nil {
		return nil, err
	}
	if postRows != preRows {
		return nil, fmt.Errorf("index scenario: rows changed %d -> %d after adoption", preRows, postRows)
	}
	evs, err = r.ap.Tick()
	if err != nil {
		return nil, err
	}
	for _, e := range evs {
		if e.Stage == autopilot.StageKept {
			rep.IndexKept = true
		}
	}
	rep.PreWorkPerCall = float64(preWork) / float64(calls)
	rep.PostWorkPerCall = float64(postWork) / float64(calls)
	if rep.PostWorkPerCall > 0 {
		rep.WorkReduction = rep.PreWorkPerCall / rep.PostWorkPerCall
	}
	return r.ledger()
}

// viewScenario is the canary-revert path: stale join-key statistics bait the
// loop into a materialized view whose true size is ~160× the estimate; the
// shadow trial must catch and revert it. Also reads the ledger back through
// SQL. Mutates rep and returns the exported event ledger.
func viewScenario(seed uint64, lRows, rRows, calls int, rep *autopilotReport) ([]byte, error) {
	rng := mlmath.NewRNG(seed)
	cat := catalog.NewCatalog()
	for _, spec := range []struct {
		name string
		rows int
	}{{"l", lRows}, {"r", rRows}} {
		tbl, err := datagen.GenTable(rng, spec.name, spec.rows, []datagen.ColSpec{
			{Name: "id", Kind: datagen.Sequential},
			{Name: "k", Kind: datagen.Uniform, Domain: 100000},
			{Name: "attr", Kind: datagen.Uniform, Domain: 1000},
		})
		if err != nil {
			return nil, err
		}
		cat.MustAdd(tbl)
	}
	cat.AnalyzeAll(32, 512)
	// Stats freeze now; the keys then collapse to 5 distinct values, so the
	// estimator's view-size guess is off by the actual-matches factor.
	for id := 0; id < 2; id++ {
		data := cat.Table(id).Data[1]
		for i := range data {
			data[i] = int64(i % 5)
		}
	}
	r, err := newAutopilotRig(cat, -1)
	if err != nil {
		return nil, err
	}

	q := plan.NewQuery(0, 1)
	q.AddFilter(0, expr.Pred{Col: 2, Op: expr.BETWEEN, Lo: 500, Hi: 509})
	q.AddJoin(expr.JoinCond{LeftTable: 0, LeftCol: 1, RightTable: 1, RightCol: 1})

	_, preRows, err := r.runN(q, calls, 50*time.Millisecond)
	if err != nil {
		return nil, err
	}
	evs, err := r.ap.Tick()
	if err != nil {
		return nil, err
	}
	for _, e := range evs {
		if e.Stage == autopilot.StageAdopted && e.Kind == autopilot.KindView {
			rep.HarmfulAdopted = true
			rep.HarmfulTarget = e.Target
		}
	}
	_, duringRows, err := r.runN(q, calls, 300*time.Millisecond)
	if err != nil {
		return nil, err
	}
	evs, err = r.ap.Tick()
	if err != nil {
		return nil, err
	}
	for _, e := range evs {
		if e.Stage == autopilot.StageDropped {
			rep.HarmfulDropped = true
			rep.HarmfulBaseline = e.BaselineWPC
			rep.HarmfulObserved = e.ObservedWPC
		}
	}
	_, postRows, err := r.runN(q, 3, 50*time.Millisecond)
	if err != nil {
		return nil, err
	}
	rep.ResultsStable = preRows == duringRows && preRows == postRows

	rr, err := r.sess.Query("SELECT seq, stage, kind FROM sys_tuning ORDER BY seq")
	if err != nil {
		return nil, err
	}
	ledger := r.ap.Events()
	rep.SysTuningRows = len(rr.Rows)
	rep.SysTuningOK = len(rr.Rows) == len(ledger)
	for i, row := range rr.Rows {
		if !rep.SysTuningOK {
			break
		}
		if row[0] != ledger[i].Seq || row[1] != int64(ledger[i].Stage) || row[2] != int64(ledger[i].Kind) {
			rep.SysTuningOK = false
		}
	}
	return r.ledger()
}

func autopilotSuite(seed uint64, quick bool, dir string) (any, error) {
	var rep autopilotReport
	rows, calls := 20000, 24
	lRows, rRows := 1000, 2000
	if quick {
		rows, calls = 4000, 12
		lRows, rRows = 400, 800
	}

	fmt.Printf("autopilot bench: beneficial-index scenario (%d rows, %d calls/phase)\n", rows, calls)
	idxA, err := indexScenario(seed, rows, calls, &rep)
	if err != nil {
		return nil, err
	}
	fmt.Printf("  adopted=%v kept=%v target=%s work/call %.0f -> %.0f (%.1fx)\n",
		rep.IndexAdopted, rep.IndexKept, rep.IndexTarget,
		rep.PreWorkPerCall, rep.PostWorkPerCall, rep.WorkReduction)

	fmt.Printf("autopilot bench: canary-revert scenario (%d x %d rows, stale join stats)\n", lRows, rRows)
	viewA, err := viewScenario(seed, lRows, rRows, calls, &rep)
	if err != nil {
		return nil, err
	}
	fmt.Printf("  adopted=%v dropped=%v target=%s observed/baseline wpc %.0f/%.0f\n",
		rep.HarmfulAdopted, rep.HarmfulDropped, rep.HarmfulTarget,
		rep.HarmfulObserved, rep.HarmfulBaseline)

	fmt.Println("autopilot bench: replaying both scenarios from scratch")
	var rep2 autopilotReport
	idxB, err := indexScenario(seed, rows, calls, &rep2)
	if err != nil {
		return nil, err
	}
	viewB, err := viewScenario(seed, lRows, rRows, calls, &rep2)
	if err != nil {
		return nil, err
	}
	rep.ReplayIdentical = bytes.Equal(idxA, idxB) && bytes.Equal(viewA, viewB)
	rep.Events = bytes.Count(idxA, []byte("\n")) + bytes.Count(viewA, []byte("\n"))
	fmt.Printf("  %d events, byte-identical=%v; sys_tuning rows=%d ok=%v\n",
		rep.Events, rep.ReplayIdentical, rep.SysTuningRows, rep.SysTuningOK)

	violated := false
	for _, c := range []struct {
		ok        bool
		violation string
	}{
		{rep.IndexAdopted, "beneficial index was not adopted"},
		{rep.IndexKept, "beneficial index did not survive its shadow trial"},
		{rep.WorkReduction > 1, fmt.Sprintf("adoption did not reduce observed work (%.2fx)", rep.WorkReduction)},
		{rep.Rejected > 0, "the unselective candidate was not rejected at the gate"},
		{rep.HarmfulAdopted, "the stale-stats view was not adopted (scenario bait failed)"},
		{rep.HarmfulDropped, "the harmful view was not dropped by shadow verification"},
		{rep.ResultsStable, "query results changed across adopt/revert"},
		{rep.ReplayIdentical, "two replays diverged (determinism contract broken)"},
		{rep.SysTuningOK, "sys_tuning disagrees with the event ledger"},
	} {
		if !c.ok {
			fmt.Printf("autopilot bench: VIOLATION: %s\n", c.violation)
			violated = true
		}
	}
	if violated {
		return nil, errors.New("autopilot contracts violated")
	}
	fmt.Println("autopilot bench: all contracts hold")
	return rep, writeJSONL(dir, "tuning.jsonl", func(w io.Writer) error {
		_, err := w.Write(bytes.Join([][]byte{idxA, viewA}, nil))
		return err
	}, autopilot.LedgerFormat.Validate)
}
