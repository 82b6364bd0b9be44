package exec

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ml4db/internal/mlmath"
	"ml4db/internal/obs"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/datagen"
	"ml4db/internal/sqlkit/optimizer"
	"ml4db/internal/sqlkit/plan"
	"ml4db/internal/workload"
)

// TestExplainWorkSumsToCounters is the Counters-unification property: over
// random star queries and every hint set, the exclusive per-operator work and
// per-category counters of EXPLAIN ANALYZE sum exactly — not approximately —
// to the execution's Counters totals.
func TestExplainWorkSumsToCounters(t *testing.T) {
	rng := mlmath.NewRNG(41)
	sch, err := datagen.NewStarSchema(rng, 400, 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	fact := sch.Cat.Table(sch.FactID)
	fact.AddIndex(catalog.BuildSecondaryIndex(fact, sch.AttrCols[0]))
	fact.AddIndex(catalog.BuildSecondaryIndex(fact, sch.AttrCols[2]))
	gen := workload.NewStarGen(sch, rng)
	opt := optimizer.New(sch.Cat)
	opt.Cost = optimizer.TrueCostParams()
	ex := New(sch.Cat)

	for i := 0; i < 20; i++ {
		q := gen.Query()
		for _, h := range optimizer.StandardHintSets() {
			p, err := opt.Plan(q, h)
			if err != nil {
				t.Fatal(err)
			}
			res, err := ex.Execute(p, Options{Analyze: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Explain == nil {
				t.Fatal("Analyze did not produce an Explain")
			}
			if got := res.Explain.TotalWork(); got != res.Work {
				t.Fatalf("hint %s query %d: per-operator work sums to %d, Counters.Total()=%d\n%s",
					h.Name, i, got, res.Work, res.Explain)
			}
			var sum Counters
			for ord := range res.Actuals {
				if st := res.Explain.Stats(ord); st != nil {
					sum = addCounters(sum, st.Counters, 1)
					if st.Work != st.Counters.Total() {
						t.Fatalf("operator %d: exclusive Work=%d but exclusive Counters.Total()=%d",
							ord, st.Work, st.Counters.Total())
					}
				}
			}
			if sum != res.Counters {
				t.Fatalf("hint %s query %d: per-operator counters sum to %+v, executor counted %+v",
					h.Name, i, sum, res.Counters)
			}
		}
	}
}

// TestExplainRowsMatchActualRows ties the EXPLAIN ANALYZE readout and the
// executor's per-operator records to the plan: one entry of each per node, in
// Walk order, and the root's row count is the result's.
func TestExplainRowsMatchActualRows(t *testing.T) {
	cat, q := threeTableJoin(t)
	opt := optimizer.New(cat)
	p, err := opt.Plan(q, optimizer.HintSet{Name: "all"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(cat).Execute(p, Options{Analyze: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Actuals) != p.NumNodes() || res.Actuals[0].Rows != int64(len(res.Rows)) {
		t.Fatalf("%d records for %d nodes, root rows %d for %d result rows", len(res.Actuals), p.NumNodes(), res.Actuals[0].Rows, len(res.Rows))
	}
	lines := strings.Split(res.Explain.String(), "\n")
	ord := 0
	p.Walk(func(n *plan.Node) {
		st := res.Explain.Stats(ord)
		if st == nil || st.Loops != 1 {
			t.Fatalf("operator %d (%s): stats %+v, want one loop", ord, n.Op, st)
		}
		line := strings.TrimSpace(lines[ord])
		if want := fmt.Sprintf(" rows=%d loops=1 ", res.Actuals[ord].Rows); !strings.HasPrefix(line, n.Head()) || !strings.Contains(line, want) {
			t.Fatalf("operator %d renders %q, want %s with%s", ord, line, n.Head(), want)
		}
		ord++
	})
}

// TestExplainGoldenThreeTableJoin pins the rendered EXPLAIN ANALYZE of a
// three-table join under a ManualClock against a golden file: layout, stats,
// and timings must all stay byte-stable.
func TestExplainGoldenThreeTableJoin(t *testing.T) {
	cat, q := threeTableJoin(t)
	opt := optimizer.New(cat)
	p, err := opt.Plan(q, optimizer.HintSet{Name: "all"})
	if err != nil {
		t.Fatal(err)
	}
	clock := &mlmath.TickClock{T: time.Unix(0, 0), Step: 100 * time.Microsecond}
	ex := New(cat)
	ex.Clock = clock
	res, err := ex.Execute(p, Options{Analyze: true})
	if err != nil {
		t.Fatal(err)
	}
	got := []byte(res.Explain.String())

	golden := filepath.Join("testdata", "explain_three_table.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("EXPLAIN ANALYZE drifted from golden\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestExecuteSpansCoverOperators checks the trace shape: an exec.execute root
// with one child span per plan operator, nested by plan structure.
func TestExecuteSpansCoverOperators(t *testing.T) {
	cat, q := threeTableJoin(t)
	opt := optimizer.New(cat)
	p, err := opt.Plan(q, optimizer.HintSet{Name: "all"})
	if err != nil {
		t.Fatal(err)
	}
	clock := &mlmath.ManualClock{T: time.Unix(1, 0)}
	ex := New(cat)
	ex.Trace = obs.NewTracer(clock)
	ex.Clock = clock
	if _, err := ex.Execute(p, Options{}); err != nil {
		t.Fatal(err)
	}
	spans := ex.Trace.Spans()
	if len(spans) != 1+p.NumNodes() {
		t.Fatalf("got %d spans, want 1 root + %d operators", len(spans), p.NumNodes())
	}
	if spans[0].Name != "exec.execute" || spans[0].Parent != 0 {
		t.Fatalf("root span wrong: %+v", spans[0])
	}
	for _, sp := range spans[1:] {
		if sp.Parent == 0 {
			t.Fatalf("operator span %q has no parent", sp.Name)
		}
	}
	var buf bytes.Buffer
	if err := ex.Trace.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if n, err := obs.ValidateTraceJSONL(&buf); err != nil || n != len(spans) {
		t.Fatalf("trace validation: %d, %v", n, err)
	}
}

// threeTableJoin builds a small deterministic catalog and a 3-table chain
// query used by the golden and span tests.
func threeTableJoin(t *testing.T) (*catalog.Catalog, *plan.Query) {
	t.Helper()
	rng := mlmath.NewRNG(7)
	sch, err := datagen.NewStarSchema(rng, 200, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewStarGen(sch, mlmath.NewRNG(3))
	opt := optimizer.New(sch.Cat)
	for i := 0; i < 200; i++ {
		q := gen.Query()
		if q.NumTables() != 3 {
			continue
		}
		// Prefer a query that actually produces rows, so the golden
		// EXPLAIN ANALYZE shows nonzero per-operator output.
		p, err := opt.Plan(q, optimizer.NoHint())
		if err != nil {
			continue
		}
		if res, err := New(sch.Cat).Execute(p, Options{}); err == nil && len(res.Rows) > 0 {
			return sch.Cat, q
		}
	}
	t.Fatal("no producing 3-table query generated")
	return nil, nil
}
