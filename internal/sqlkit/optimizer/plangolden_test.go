package optimizer

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ml4db/internal/mlmath"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/datagen"
	"ml4db/internal/sqlkit/exec"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/plan"
	"ml4db/internal/workload"
)

// goldenQuery is one seeded query of the plan-identity corpus with the
// catalog it runs over.
type goldenQuery struct {
	label string
	cat   *catalog.Catalog
	q     *plan.Query
}

// goldenCorpus builds the plan-identity corpus: star joins over 1–6
// dimensions, correlated-filter star joins, single-table selections and
// grouped aggregations over one star schema (one fact index built), plus
// 2–5-table chain joins. Every join graph in it is acyclic.
func goldenCorpus(t *testing.T) []goldenQuery {
	t.Helper()
	star, err := datagen.NewStarSchema(mlmath.NewRNG(41), 8000, 100, 6)
	if err != nil {
		t.Fatal(err)
	}
	fact := star.Cat.Table(star.FactID)
	fact.AddIndex(catalog.BuildSecondaryIndex(fact, star.AttrCols[0]))
	chain, err := datagen.NewChainSchema(mlmath.NewRNG(42), []int{900, 700, 500, 400, 300})
	if err != nil {
		t.Fatal(err)
	}
	sg := workload.NewStarGen(star, mlmath.NewRNG(43))
	cg := workload.NewChainGen(chain, mlmath.NewRNG(44))

	var out []goldenQuery
	add := func(cat *catalog.Catalog, q *plan.Query, format string, args ...any) {
		out = append(out, goldenQuery{label: fmt.Sprintf(format, args...), cat: cat, q: q})
	}
	for dims := 1; dims <= 6; dims++ {
		for i := 0; i < 8; i++ {
			add(star.Cat, sg.QueryWithDims(dims), "star%d/%d", dims, i)
		}
		for i := 0; i < 3; i++ {
			add(star.Cat, sg.CorrelatedJoinQuery(dims), "corr%d/%d", dims, i)
		}
		for i := 0; i < 3; i++ {
			// Group by the last dimension's b column, sum one fact measure
			// and one column of the first dimension.
			q := sg.QueryWithDims(dims).SetAgg(dims, 2,
				plan.AggCol{Table: 0, Col: star.AttrCols[2]}, plan.AggCol{Table: 1, Col: 1})
			add(star.Cat, q, "agg%d/%d", dims, i)
		}
	}
	for preds := 1; preds <= 3; preds++ {
		for i := 0; i < 4; i++ {
			add(star.Cat, sg.SelectionQuery(preds, i%2 == 1), "sel%d/%d", preds, i)
		}
	}
	for n := 2; n <= 5; n++ {
		for i := 0; i < 9; i++ {
			add(chain.Cat, cg.Query(n), "chain%d/%d", n, i)
		}
	}
	return out
}

// renderShape prints the part of a plan this golden pins: operator tree,
// leaf order, access path, partitioning and the estimates as exact bits. It
// prints no join or aggregate column — how a node names its columns is not
// part of plan identity; the executed rows' checksum covers what they select.
func renderShape(b *strings.Builder, n *plan.Node) {
	fmt.Fprintf(b, "%s", n.Op)
	if n.IsLeaf() {
		fmt.Fprintf(b, ":t%d#%d", n.TablePos, n.TableID)
		if n.Op == plan.OpIndexScan {
			fmt.Fprintf(b, ":ix%d", n.IndexCol)
		}
	}
	fmt.Fprintf(b, "[p%d r%x c%x]", n.Partitions, math.Float64bits(n.EstRows), math.Float64bits(n.EstCost))
	if !n.IsLeaf() {
		b.WriteByte('(')
		for i, c := range n.Children {
			if i > 0 {
				b.WriteByte(' ')
			}
			renderShape(b, c)
		}
		b.WriteByte(')')
	}
}

// rowChecksum folds every value of every row, in order, into an FNV-1a style
// hash: it moves when a value, the row order or the column (leaf) order does.
func rowChecksum(rows [][]int64) uint64 {
	h := uint64(14695981039346656037)
	for _, row := range rows {
		for _, v := range row {
			h = (h ^ uint64(v)) * 1099511628211
		}
		h = (h ^ 0xff) * 1099511628211
	}
	return h
}

// TestPlanIdentityGolden pins, for every corpus query × hint set ×
// parallelism ∈ {1, 4}, the chosen plan and its execution against
// testdata/plans.golden. The file was generated before plans named base
// columns (ISSUE 17) and must not change when the planner's or executor's
// internals do: on acyclic join graphs every plan, estimate, row and counter
// is a contract. Regenerate with UPDATE_GOLDEN=1 only for an intended change.
// Every one of the executions also checks that the executor left the tree it
// ran exactly as planned.
func TestPlanIdentityGolden(t *testing.T) {
	hints := append(StandardHintSets(), AtomicHints()...)
	var b strings.Builder
	for _, gq := range goldenCorpus(t) {
		ex := exec.New(gq.cat)
		for _, h := range hints {
			for _, par := range []int{1, 4} {
				o := New(gq.cat)
				o.Parallelism = par
				fmt.Fprintf(&b, "%s %s P=%d ", gq.label, h.Name, par)
				p, err := o.Plan(gq.q, h)
				if err != nil {
					t.Fatalf("%s/%s: plan: %v", gq.label, h.Name, err)
				}
				renderShape(&b, p)
				before := p.Clone()
				res, err := ex.Execute(p, exec.Options{})
				if err != nil {
					t.Fatalf("%s/%s: execute: %v", gq.label, h.Name, err)
				}
				// Plans are read-only once built: executing one writes nothing
				// into it.
				if !reflect.DeepEqual(p, before) {
					t.Fatalf("%s/%s P=%d: Execute changed the plan it was handed\n got  %s\n want %s", gq.label, h.Name, par, p, before)
				}
				fmt.Fprintf(&b, " rows=%d work=%d ctr=%v sum=%x\n", len(res.Rows), res.Work, res.Counters.Vec(), rowChecksum(res.Rows))
			}
		}
	}
	checkGolden(t, "plans.golden", b.String())
}

// edgeCase is one planning problem of the edge corpus: a query and, when
// non-nil, the estimates to plan it over instead of the histogram
// estimator's.
type edgeCase struct {
	label string
	q     *plan.Query
	est   *Estimates
}

// edgeCorpus builds what plans.golden leaves out, over one chain schema of
// equal-sized tables: cyclic and double-edge join graphs, where a join may
// carry several conditions, and hand-built estimates holding 0, 1e-300, 1e300,
// +Inf and NaN, or making every candidate of a size tie, where the search's
// order and its "strictly cheaper" rule decide the plan.
func edgeCorpus(t *testing.T) (*catalog.Catalog, []edgeCase) {
	t.Helper()
	chain, err := datagen.NewChainSchema(mlmath.NewRNG(45), []int{400, 400, 400, 400})
	if err != nil {
		t.Fatal(err)
	}
	triangle := chainQuery(chain, 3)
	triangle.AddJoin(expr.JoinCond{LeftTable: 2, LeftCol: 2, RightTable: 0, RightCol: 2})
	cycle4 := chainQuery(chain, 4)
	cycle4.AddJoin(expr.JoinCond{LeftTable: 3, LeftCol: 2, RightTable: 0, RightCol: 2})
	double := chainQuery(chain, 3)
	double.AddJoin(expr.JoinCond{LeftTable: 1, LeftCol: 2, RightTable: 0, RightCol: 2})
	cases := []edgeCase{{"triangle", triangle, nil}, {"cycle4", cycle4, nil}, {"double-edge", double, nil}}

	base, _ := Estimate(&HistEstimator{Cat: chain.Cat}, cycle4, nil)
	with := func(label string, edit func(e *Estimates)) {
		e := Estimates{Rows: slices.Clone(base.Rows), Sel: slices.Clone(base.Sel)}
		edit(&e)
		cases = append(cases, edgeCase{label, cycle4, &e})
	}
	fill := func(xs []float64, v float64) {
		for i := range xs {
			xs[i] = v
		}
	}
	for _, v := range []float64{0, 1e-300, 1e300, math.Inf(1), math.NaN()} {
		with(fmt.Sprintf("cycle4/rows=%g", v), func(e *Estimates) { fill(e.Rows, v) })
		with(fmt.Sprintf("cycle4/sel=%g", v), func(e *Estimates) { fill(e.Sel, v) })
		with(fmt.Sprintf("cycle4/rows1=%g", v), func(e *Estimates) { e.Rows[1] = v })
		with(fmt.Sprintf("cycle4/sel2=%g", v), func(e *Estimates) { e.Sel[2] = v })
		with(fmt.Sprintf("cycle4/rows0,sel0=%g", v), func(e *Estimates) { e.Rows[0], e.Sel[0] = v, v })
	}
	with("cycle4/mixed", func(e *Estimates) {
		copy(e.Rows, []float64{0, 1e300, math.NaN(), math.Inf(1)})
		copy(e.Sel, []float64{1e-300, math.NaN(), math.Inf(1), 0})
	})
	with("cycle4/ties", func(e *Estimates) {
		fill(e.Rows, 100)
		fill(e.Sel, 0.01)
	})
	return chain.Cat, cases
}

// TestPlanIdentityEdgeGolden pins the chosen plan of every edge-corpus case ×
// hint set × parallelism ∈ {1, 4} against testdata/plans_edge.golden, which
// was generated by the join-order search that built a plan node for every
// improving candidate. It pins the plans, not their executions: on these
// inputs what could move is which of several equal, NaN or infinite
// candidates the search keeps. It also pins NaN payloads, which Go leaves to
// the compiler (a product of two NaNs carries one operand's bits, and which
// one depends on register allocation): a drift that only swaps 7ff8… for
// fff8… means the search's arithmetic was compiled differently, not that it
// chose another plan.
func TestPlanIdentityEdgeGolden(t *testing.T) {
	cat, cases := edgeCorpus(t)
	var b strings.Builder
	for _, c := range cases {
		for _, h := range append(StandardHintSets(), AtomicHints()...) {
			for _, par := range []int{1, 4} {
				o := New(cat)
				o.Parallelism = par
				var p *plan.Node
				var err error
				if c.est == nil {
					p, err = o.Plan(c.q, h)
				} else {
					p, err = o.PlanWith(c.q, h, *c.est)
				}
				if err != nil {
					t.Fatalf("%s/%s: plan: %v", c.label, h.Name, err)
				}
				fmt.Fprintf(&b, "%s %s P=%d ", c.label, h.Name, par)
				renderShape(&b, p)
				b.WriteByte('\n')
			}
		}
	}
	checkGolden(t, "plans_edge.golden", b.String())
}

// checkGolden compares got with testdata/name, rewriting the file first when
// UPDATE_GOLDEN is set, and reports the first lines that differ.
func checkGolden(t *testing.T, name, gotText string) {
	t.Helper()
	got := []byte(gotText)
	golden := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	diffs := 0
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			if diffs++; diffs <= 5 {
				t.Errorf("line %d drifted\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
	}
	t.Fatalf("%s: %d of %d lines differ (got %d lines)", name, diffs, len(wl), len(gl))
}
