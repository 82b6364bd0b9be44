package exec

import (
	"testing"

	"ml4db/internal/mlmath"
	"ml4db/internal/sqlkit/datagen"
	"ml4db/internal/sqlkit/plan"
)

// TestColOffsetFollowsLeafOrder pins the layout rule on a bushy plan whose
// leaf order differs from the query's table order, against the values the
// executor actually emits: row[ColOffset(pos, col)] is that table's column.
func TestColOffsetFollowsLeafOrder(t *testing.T) {
	sch, err := datagen.NewChainSchema(mlmath.NewRNG(3), []int{30, 30, 30, 30})
	if err != nil {
		t.Fatal(err)
	}
	cat := sch.Cat
	scan := func(pos int) *plan.Node { return plan.NewScan(pos, sch.TableIDs[pos], nil) }
	// (t2 ⋈ t3) ⋈ (t1 ⋈ t0): leaf order 2, 3, 1, 0; every table is 3 wide.
	right := plan.NewJoin(plan.OpHashJoin, scan(1), scan(0), on(1, 0, 0, 1))
	left := plan.NewJoin(plan.OpNLJoin, scan(2), scan(3), on(2, 1, 3, 0))
	root := plan.NewJoin(plan.OpMergeJoin, left, right, on(2, 0, 1, 1))
	for pos, want := range []int{9, 6, 0, 3} {
		if off, ok := ColOffset(cat, root, pos, 2); !ok || off != want+2 {
			t.Errorf("ColOffset(t%d.c2) = %d, %v; want %d", pos, off, ok, want+2)
		}
	}
	if off, ok := ColOffset(cat, left, 3, 1); !ok || off != 4 {
		t.Errorf("ColOffset(t3.c1) under the left join = %d, %v; want 4", off, ok)
	}
	if _, ok := ColOffset(cat, left, 0, 0); ok {
		t.Error("ColOffset resolved t0 under a subtree that does not scan it")
	}
	res, err := New(cat).Execute(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("chain join returned no rows")
	}
	for _, row := range res.Rows {
		for pos := range sch.TableIDs {
			id, _ := ColOffset(cat, root, pos, 0)
			attr, _ := ColOffset(cat, root, pos, 2)
			if tbl := cat.Table(sch.TableIDs[pos]); tbl.Data[2][row[id]] != row[attr] {
				t.Fatalf("row %v: offset %d does not hold t%d.attr of the row with id %d", row, attr, pos, row[id])
			}
		}
	}
	agg := plan.NewAgg(root, &plan.AggSpec{GroupTable: 0, GroupCol: 2})
	if _, ok := ColOffset(cat, agg, 0, 2); ok {
		t.Error("ColOffset resolved a base column in an aggregation's output")
	}
}

// TestMalformedReferencesAreErrors: a join without a condition, or a node
// naming a table its input does not scan, fails before any work is charged.
func TestMalformedReferencesAreErrors(t *testing.T) {
	cat := tinyCatalog(t)
	a, b := plan.NewScan(0, 0, nil), plan.NewScan(1, 1, nil)
	for name, p := range map[string]*plan.Node{
		"no condition":     plan.NewJoin(plan.OpHashJoin, a, b),
		"wrong side":       plan.NewJoin(plan.OpNLJoin, a, b, on(1, 0, 0, 0)),
		"unknown table":    plan.NewJoin(plan.OpMergeJoin, a, b, on(0, 0, 2, 0)),
		"agg without spec": plan.NewAgg(a, nil),
		"agg wrong table":  plan.NewAgg(a, &plan.AggSpec{GroupTable: 1}),
		"sum wrong table":  plan.NewAgg(a, &plan.AggSpec{Sums: []plan.AggCol{{Table: 1}}}),
	} {
		res, err := New(cat).Execute(p, Options{})
		if err == nil {
			t.Errorf("%s: executed without error", name)
		} else if res.Work != 0 {
			t.Errorf("%s: charged %d work units before failing", name, res.Work)
		}
	}
}
