package engine

import (
	"strconv"
	"testing"
	"time"

	"ml4db/internal/mlmath"
	"ml4db/internal/querystore"
	"ml4db/internal/sqlkit/datagen"
	"ml4db/internal/sqlkit/exec"
	"ml4db/internal/sqlkit/optimizer"
	"ml4db/internal/sqlkit/sqlparse"
)

// star7SQL is a 7-table star join of the form the end-to-end benchmark's
// adhoc_plan workload issues (bench/stmts.go): the fact table and six
// dimensions in shuffled order, two fact filters, one filter on each of the
// first two dimensions and a four-column select list.
const star7SQL = "SELECT fact.attr0, fact.attr1, dim3.a, dim0.b FROM fact, dim3, dim0, dim5, dim1, dim2, dim4" +
	" WHERE fact.fk3 = dim3.id AND fact.fk0 = dim0.id AND fact.fk5 = dim5.id AND fact.fk1 = dim1.id" +
	" AND fact.fk2 = dim2.id AND fact.fk4 = dim4.id AND fact.attr0 BETWEEN 412 AND 432" +
	" AND fact.attr1 >= 17 AND dim3.id >= 41 AND dim0.id BETWEEN 23 AND 72"

// coldStep is one thing a cold Session.Query does for star7SQL around
// planning and execution, ready to repeat.
type coldStep struct {
	name string
	run  func() error
}

// coldFrontEnd parses, plans and executes star7SQL once over a six-dimension
// star schema and returns its front-end steps: parse the text, compute the
// statement's shape, record the execution in a query store. The store's
// statement table is already full, as adhoc_plan's is in steady state (it
// issues more shapes than the table holds), so every record takes the
// overflow path.
func coldFrontEnd(tb testing.TB) []coldStep {
	tb.Helper()
	sch, err := datagen.NewStarSchema(mlmath.NewRNG(5), 2000, 100, 6)
	if err != nil {
		tb.Fatal(err)
	}
	st, err := sqlparse.Parse(sch.Cat, star7SQL)
	if err != nil {
		tb.Fatal(err)
	}
	q := st.Query
	p, err := optimizer.New(sch.Cat).Plan(q, optimizer.NoHint())
	if err != nil {
		tb.Fatal(err)
	}
	res, err := exec.New(sch.Cat).Execute(p, exec.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	store := querystore.New(querystore.Options{Catalog: sch.Cat, Clock: &mlmath.ManualClock{T: time.Unix(0, 0)}})
	for i := range 512 { // the store's statement cap
		store.Record(querystore.Observation{Shape: strconv.Itoa(i)})
	}
	obs := querystore.Observation{Shape: queryShape(q, "default"), Query: q, Plan: p,
		Actuals: res.Actuals, Work: res.Work, Rows: res.Actuals[0].Rows}
	return []coldStep{
		{"parse", func() error {
			_, err := sqlparse.Parse(sch.Cat, star7SQL)
			return err
		}},
		{"shape", func() error { queryShape(q, "default"); return nil }},
		{"record", func() error { store.Record(obs); return nil }},
	}
}

// BenchmarkColdFrontEnd is the micro tier of what a plan-cache miss costs
// besides planning and execution, on an adhoc_plan-style 7-table star: parse,
// shape (the plan-cache key's and the query store's statement identity) and
// query-store record. Run with
// go test -run '^$' -bench ColdFrontEnd -benchmem ./internal/engine/.
func BenchmarkColdFrontEnd(b *testing.B) {
	for _, step := range coldFrontEnd(b) {
		b.Run(step.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := step.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestColdFrontEndAllocContract pins the allocations of each cold front-end
// step on the 7-table star: parse 8 (the token slice; the statement, its
// query and the query's table, filter-list, filter and join arrays; the
// select list — each allocated once, at its final length), shape 1 (the
// string: the text is rendered in a stack buffer) and record 1 (the heat
// samples, sized from the plan) — the same in a plain build and under -race,
// which is how scripts/check.sh runs it. History: parse was 68 while the
// lexer grew its token slice from empty and made a string per one-byte
// symbol and the parser grew each list by appending; shape 3 with a 64-byte
// heap buffer that grew once; record 4 while the heat-sample slice grew to
// the plan's 16 filter and join columns. Shape was 33 while it boxed each
// filter and join for fmt (55–57 under -race, where sync.Pool drops fmt's
// printers at random, so a ceiling could only be a guess).
func TestColdFrontEndAllocContract(t *testing.T) {
	ceilings := map[string]float64{"parse": 8, "shape": 1, "record": 1}
	for _, step := range coldFrontEnd(t) {
		var err error
		got := testing.AllocsPerRun(100, func() { err = step.run() })
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if got > ceilings[step.name] {
			t.Errorf("%s: %.0f allocs per star7 statement, ceiling %.0f", step.name, got, ceilings[step.name])
		}
	}
}
