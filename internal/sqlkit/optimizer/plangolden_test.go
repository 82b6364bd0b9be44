package optimizer

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ml4db/internal/mlmath"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/datagen"
	"ml4db/internal/sqlkit/exec"
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
	got := []byte(b.String())

	golden := filepath.Join("testdata", "plans.golden")
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
	t.Fatalf("plans.golden: %d of %d lines differ (got %d lines)", diffs, len(wl), len(gl))
}
