package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"ml4db/internal/obs"
)

func TestPercentileWantsTenSamplesBeyond(t *testing.T) {
	sample := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		return s
	}
	if _, ok := percentile(sample(500), 0.99); ok {
		t.Error("p99 of 500 samples has 5 beyond it and must be refused")
	}
	if v, ok := percentile(sample(1000), 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1000 samples = %d, %v; want 990, true", v, ok)
	}
	if v, ok := percentile(sample(400), 0.95); !ok || v != 380 {
		t.Errorf("p95 of 400 samples = %d, %v; want 380, true", v, ok)
	}
	if _, ok := percentile(sample(199), 0.95); ok {
		t.Error("p95 of 199 samples has 9 beyond it and must be refused")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("a percentile of no samples must be refused")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	// bench.query 100
	//   engine.query 80        (root in the engine's trace: adopted)
	//     exec.execute 50
	//       exec.HashJoin 45
	//         exec.SeqScan 10
	//         exec.SeqScan 20
	// bench.record 7
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	spans := []obs.SpanData{
		{ID: 1, Parent: 0, Name: spanQuery, Duration: us(100)},
		{ID: 2, Parent: 0, Name: "engine.query", Duration: us(80)},
		{ID: 3, Parent: 2, Name: "exec.execute", Duration: us(50)},
		{ID: 4, Parent: 3, Name: "exec.HashJoin", Duration: us(45)},
		{ID: 5, Parent: 4, Name: "exec.SeqScan", Duration: us(10)},
		{ID: 6, Parent: 4, Name: "exec.SeqScan", Duration: us(20)},
		{ID: 7, Parent: 0, Name: spanRecord, Duration: us(7)},
	}
	adoptEngineSpans(spans)
	if spans[1].Parent != 1 {
		t.Fatalf("engine.query parent = %d, want 1 (the bench.query before it)", spans[1].Parent)
	}
	want := []time.Duration{us(20), us(30), us(5), us(15), us(10), us(20), us(7)}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times = %v, want %v", got, want)
	}
}

func sqlOf(q *sequence, n int, warmup bool) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = q.op(i, warmup).sql
	}
	return out
}

func TestSequenceIsAPureFunctionOfTheSeed(t *testing.T) {
	for i := range workloads {
		d := &workloads[i]
		n := 2 * d.newSequence(1).opsPerRound
		a, b := sqlOf(d.newSequence(1), n, false), sqlOf(d.newSequence(1), n, false)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two different sequences", d.name)
		}
		if c := sqlOf(d.newSequence(2), n, false); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same sequence", d.name)
		}
	}
}

func TestAdhocWarmupAndMeasuredLiteralsAreDisjoint(t *testing.T) {
	d := findWorkload("adhoc_plan")
	q := d.newSequence(1)
	const n = 20000
	seen := map[string]bool{}
	for _, sql := range sqlOf(q, n, false) {
		if seen[sql] {
			t.Fatalf("measured op repeats a statement: %s", sql)
		}
		seen[sql] = true
	}
	for _, sql := range sqlOf(q, n, true) {
		if seen[sql] {
			t.Fatalf("warm-up issues a measured statement: %s", sql)
		}
	}
	// The ranges themselves, not just the sampled statements.
	for i := 0; i < n; i++ {
		for _, warm := range []bool{false, true} {
			for _, p := range q.op(i, warm).where {
				if p.col == "attr1" && (p.lo >= adhocYMeasured) != warm {
					t.Fatalf("op %d (warm-up %v) has attr1 >= %d", i, warm, p.lo)
				}
			}
		}
	}
}

func TestAnalyticWorkloadsShareDataAndStatements(t *testing.T) {
	mem, par, spill := findWorkload("analytic_mem"), findWorkload("analytic_par"), findWorkload("analytic_spill")
	for _, d := range []*workloadDef{par, spill} {
		if d.factRows != mem.factRows || d.dimRows != mem.dimRows || d.numDims != mem.numDims {
			t.Errorf("%s does not generate analytic_mem's data", d.name)
		}
		if !reflect.DeepEqual(sqlOf(d.newSequence(3), 96, false), sqlOf(mem.newSequence(3), 96, false)) {
			t.Errorf("%s does not issue analytic_mem's statements", d.name)
		}
	}
	// Same references too: the spilled table's are computed from the arrays
	// captured before the spill.
	refs := func(d *workloadDef) []reference {
		e, err := setUp(d.scaled(true), 3, nil, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer e.close()
		ops, err := newHarness(e, 3).round(0, false)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]reference, len(ops))
		for i, o := range ops {
			out[i] = *o.ref
		}
		return out
	}
	if !reflect.DeepEqual(refs(mem), refs(spill)) {
		t.Error("analytic_spill is checked against other references than analytic_mem")
	}
}

func TestQuickSmoke(t *testing.T) {
	cfg := config{seed: 5, quick: true, outDir: t.TempDir()}
	for _, w := range workloads {
		for _, run := range []struct {
			defs []metricDef
			fn   func(config, workloadDef, bool) (*result, error)
		}{{endToEnd, runUntracedWorkload}, {perLayer, runTracedWorkload}} {
			res, err := run.fn(cfg, w.scaled(true), false)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s: correct=%v failed=%d attempted=%d", w.name, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(run.defs) {
				t.Errorf("%s: %d metrics reported, %d named", w.name, len(res.Metrics), len(run.defs))
			}
			for _, d := range run.defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: metric %s = %+v (present %v)", w.name, d.name, m, ok)
				}
			}
			for _, d := range endToEnd {
				if m, ok := res.Metrics[d.name]; ok && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must be positive", w.name, d.name, m.Value)
				}
			}
		}
		if _, err := validateSpans(cfg.outDir + "/" + w.name + ".spans.jsonl"); err != nil {
			t.Errorf("%s: span file: %v", w.name, err)
		}
	}
}

func TestCorruptReferenceFailsTheRun(t *testing.T) {
	cfg := config{seed: 5, quick: true, outDir: t.TempDir()}
	w := findWorkload("analytic_mem").scaled(true)
	for _, fn := range []func(config, workloadDef, bool) (*result, error){runUntracedWorkload, runTracedWorkload} {
		res, err := fn(cfg, w, true)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("a corrupted reference went unnoticed: correct=%v failed=%d", res.Correct, res.Failed)
		}
		if verdict(w.name, res) == nil {
			t.Error("a run with a wrong result must fail the command")
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestBenchmarkJSONMatchesTheTables holds BENCHMARK.json at the repository
// root to the workload and metric tables in this package. On a mismatch it
// logs the file the tables describe.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	type fileJSON struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []e2eJSON      `json:"end_to_end"`
		PerLayer   []layerJSON    `json:"per_layer"`
	}
	want := fileJSON{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
		want.Workloads = append(want.Workloads, workloadJSON{w.name, w.why})
	}
	for _, d := range endToEnd {
		want.EndToEnd = append(want.EndToEnd, e2eJSON{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		want.PerLayer = append(want.PerLayer, layerJSON{d.name, d.unit, d.better})
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got fileJSON
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		expected, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("BENCHMARK.json does not match the tables; they describe:\n%s", expected)
	}
}
