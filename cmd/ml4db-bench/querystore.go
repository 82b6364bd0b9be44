package main

// The querystore suite exercises the internal/querystore workload
// observatory end to end.
//
//   - recording overhead: the same workload through one engine with the
//     store attached vs one with no store. The "nil is off, and free"
//     contract has its own allocation test; here the attached store's
//     per-query overhead is measured and reported (recording is counter
//     updates and one plan walk, not a second execution);
//   - exact statement accounting: a scripted workload (distinct shapes with
//     known call counts, cache hits, and one budget abort) is read back via
//     `SELECT * FROM sys_statements ORDER BY total_work DESC` through the
//     normal planner/executor, and every count must equal what the driver
//     executed;
//   - deterministic export: the same workload replayed twice under fresh
//     mlmath.ManualClocks must produce byte-identical JSONL exports, and the
//     export must pass the querystore schema validator; it is written to
//     querystore.jsonl for cmd/ml4db-tracecheck to revalidate.
//
// Any violated contract fails the suite; check.sh runs the -quick variant as
// a smoke test.

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"ml4db/internal/engine"
	"ml4db/internal/mlmath"
	"ml4db/internal/querystore"
	"ml4db/internal/sqlkit/datagen"
	"ml4db/internal/sqlkit/exec"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/plan"
)

type querystoreReport struct {
	Queries int `json:"queries"`
	Repeats int `json:"repeats"`

	BareSec     float64 `json:"bare_sec"`
	RecordedSec float64 `json:"recorded_sec"`
	Overhead    float64 `json:"overhead"`

	Statements      int  `json:"statements"`
	AccountingExact bool `json:"accounting_exact"`

	ExportLines     int  `json:"export_lines"`
	ExportBytes     int  `json:"export_bytes"`
	ReplayIdentical bool `json:"replay_identical"`
	ExportValid     bool `json:"export_valid"`
}

// querystoreWorkload builds a small star schema and `queries` distinct
// star-join statements over it: same shape (fact ⋈ every dimension),
// different range literals, so each is its own statement record and plan-cache
// entry on first sighting and a pure hit afterwards. The filter is selective,
// so execution stays cheap: the subject here is the recording path.
func querystoreWorkload(seed uint64, queries int) (*datagen.StarSchema, []*plan.Query, error) {
	sch, err := datagen.NewStarSchema(mlmath.NewRNG(seed), 2000, 100, 4)
	if err != nil {
		return nil, nil, err
	}
	qs := make([]*plan.Query, queries)
	for i := range qs {
		q := plan.NewQuery(append([]int{sch.FactID}, sch.DimIDs...)...)
		q.AddFilter(0, expr.Pred{Col: sch.AttrCols[0], Op: expr.GE, Lo: int64(860 + 7*i)})
		for d, col := range sch.FKCol {
			q.AddJoin(expr.JoinCond{LeftTable: 0, LeftCol: col, RightTable: d + 1, RightCol: 0})
		}
		qs[i] = q
	}
	return sch, qs, nil
}

func querystoreSuite(seed uint64, quick bool, dir string) (any, error) {
	queries, repeats := 10, 20
	if quick {
		queries, repeats = 5, 8
	}

	rep := querystoreReport{Queries: queries, Repeats: repeats}

	// --- Recording overhead: store-off vs store-on, same workload. ---
	timeWorkload := func(recorded bool) (float64, error) {
		sch, qs, err := querystoreWorkload(seed, queries)
		if err != nil {
			return 0, err
		}
		var opts engine.Options
		if recorded {
			opts.Store = querystore.New(querystore.Options{Catalog: sch.Cat})
		}
		sess := engine.New(sch.Cat, opts).Session()
		return bestOf(quick, func() {
			for r := 0; r < repeats; r++ {
				for _, q := range qs {
					if _, err := sess.Run(q); err != nil {
						panic(err)
					}
				}
			}
		}), nil
	}
	var err error
	if rep.BareSec, err = timeWorkload(false); err != nil {
		return nil, err
	}
	if rep.RecordedSec, err = timeWorkload(true); err != nil {
		return nil, err
	}
	if rep.BareSec > 0 {
		rep.Overhead = rep.RecordedSec/rep.BareSec - 1
	}

	// --- Exact statement accounting through sys_statements. ---
	if rep.AccountingExact, rep.Statements, err = querystoreAccounting(seed); err != nil {
		return nil, err
	}

	// --- Deterministic export: two replays, byte-identical, valid. ---
	replay := func() ([]byte, error) {
		sch, qs, err := querystoreWorkload(seed, queries)
		if err != nil {
			return nil, err
		}
		mc := &mlmath.ManualClock{T: time.Unix(0, 0)}
		store := querystore.New(querystore.Options{
			Clock: mc, Catalog: sch.Cat, Window: time.Second,
		})
		eng := engine.New(sch.Cat, engine.Options{Store: store})
		sess := eng.Session()
		for r := 0; r < 3; r++ {
			for _, q := range qs {
				if _, err := sess.Run(q); err != nil {
					return nil, err
				}
				mc.Advance(250 * time.Millisecond)
			}
		}
		store.Flush()
		var buf bytes.Buffer
		if err := store.WriteJSONL(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	exportA, err := replay()
	if err != nil {
		return nil, err
	}
	exportB, err := replay()
	if err != nil {
		return nil, err
	}
	rep.ReplayIdentical = bytes.Equal(exportA, exportB)
	rep.ExportBytes = len(exportA)
	n, verr := querystore.ValidateJSONL(bytes.NewReader(exportA))
	rep.ExportValid = verr == nil
	rep.ExportLines = n

	fmt.Printf("  overhead      bare=%.4fs recorded=%.4fs overhead=%.1f%%\n",
		rep.BareSec, rep.RecordedSec, rep.Overhead*100)
	fmt.Printf("  accounting    statements=%d exact=%v\n", rep.Statements, rep.AccountingExact)
	fmt.Printf("  export        lines=%d bytes=%d replay_identical=%v valid=%v\n",
		rep.ExportLines, rep.ExportBytes, rep.ReplayIdentical, rep.ExportValid)

	if !rep.AccountingExact {
		return nil, errors.New("querystore contract violated: sys_statements does not match the executed workload")
	}
	if !rep.ReplayIdentical {
		return nil, errors.New("querystore contract violated: two replays exported different bytes")
	}
	if verr != nil {
		return nil, fmt.Errorf("querystore contract violated: export fails validation: %v", verr)
	}
	return rep, publish(dir, "querystore.jsonl", exportA) // validated above
}

// querystoreAccounting runs a scripted workload with known per-shape counts
// and checks every sys_statements row against what the driver executed.
func querystoreAccounting(seed uint64) (bool, int, error) {
	sch, qs, err := querystoreWorkload(seed, 3)
	if err != nil {
		return false, 0, err
	}
	store := querystore.New(querystore.Options{
		Clock:   &mlmath.ManualClock{T: time.Unix(0, 0)},
		Catalog: sch.Cat,
	})
	eng := engine.New(sch.Cat, engine.Options{Store: store})
	sess := eng.Session()

	// Script: q0 ×3, q1 ×2, q2 ×1, plus one budget-aborted run of q0's
	// shape. Expected per-shape calls: 4, 2, 1; total cache hits counted
	// from the results.
	var totalWork, cacheHits int64
	script := []int{0, 0, 0, 1, 1, 2}
	for _, i := range script {
		res, err := sess.Run(qs[i])
		if err != nil {
			return false, 0, err
		}
		totalWork += res.Work
		if res.CacheHit {
			cacheHits++
		}
	}
	tiny := eng.Session()
	tiny.Budget = &exec.Budget{MaxWork: 10}
	out, err := tiny.Run(qs[0])
	if !errors.Is(err, exec.ErrWorkBudgetExceeded) {
		return false, 0, fmt.Errorf("tiny budget run: %v, want budget abort", err)
	}
	if out.Result != nil {
		totalWork += out.Work
	}
	if out.CacheHit {
		cacheHits++
	}

	rr, err := sess.Query("SELECT * FROM sys_statements ORDER BY total_work DESC")
	if err != nil {
		return false, 0, err
	}
	col := map[string]int{}
	for i, c := range rr.Columns {
		col[c] = i
	}
	var sumCalls, sumWork, sumHits, sumAborts int64
	for _, row := range rr.Rows {
		sumCalls += row[col["calls"]]
		sumWork += row[col["total_work"]]
		sumHits += row[col["cache_hits"]]
		sumAborts += row[col["budget_aborts"]]
	}
	exact := len(rr.Rows) == 3 &&
		sumCalls == int64(len(script)+1) &&
		sumWork == totalWork &&
		sumHits == cacheHits &&
		sumAborts == 1
	if !exact {
		fmt.Printf("querystore accounting mismatch: rows=%d calls=%d/%d work=%d/%d hits=%d/%d aborts=%d/1\n",
			len(rr.Rows), sumCalls, len(script)+1, sumWork, totalWork, sumHits, cacheHits, sumAborts)
	}
	return exact, len(rr.Rows), nil
}
