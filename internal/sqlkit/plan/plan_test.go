package plan

import (
	"strings"
	"testing"

	"ml4db/internal/sqlkit/expr"
)

func twoJoinPlan() *Node {
	s0 := NewScan(0, 10, []expr.Pred{{Col: 1, Op: expr.GT, Lo: 5}})
	s1 := NewScan(1, 11, nil)
	s2 := NewScan(2, 12, nil)
	j1 := NewJoin(OpHashJoin, s0, s1, expr.JoinCond{LeftTable: 0, LeftCol: 0, RightTable: 1, RightCol: 1})
	return NewJoin(OpNLJoin, j1, s2, expr.JoinCond{LeftTable: 1, LeftCol: 0, RightTable: 2, RightCol: 0})
}

func TestNodeShapeAccessors(t *testing.T) {
	root := twoJoinPlan()
	if root.IsLeaf() {
		t.Error("join reported as leaf")
	}
	if got := root.NumNodes(); got != 5 {
		t.Errorf("NumNodes = %d, want 5", got)
	}
	if got := root.Depth(); got != 3 {
		t.Errorf("Depth = %d, want 3", got)
	}
	tables := root.Tables()
	if len(tables) != 3 {
		t.Fatalf("Tables = %v", tables)
	}
	want := map[int]bool{0: true, 1: true, 2: true}
	for _, p := range tables {
		if !want[p] {
			t.Errorf("unexpected table position %d", p)
		}
	}
}

func TestLeafFindsScanByPosition(t *testing.T) {
	root := twoJoinPlan()
	for pos, id := range []int{10, 11, 12} {
		if l := root.Leaf(pos); l == nil || l.TableID != id {
			t.Errorf("Leaf(%d) = %v, want the scan of table %d", pos, l, id)
		}
	}
	if l := root.Children[0].Leaf(2); l != nil {
		t.Errorf("Leaf(2) under the t0–t1 join = %v, want nil", l)
	}
}

// TestHeadNamesBaseColumns pins the one operator-head renderer: joins list
// every condition as (table position, column) references, aggregates name
// their grouping and summed columns the same way.
func TestHeadNamesBaseColumns(t *testing.T) {
	j := NewJoin(OpHashJoin, NewScan(0, 10, nil), NewScan(2, 12, nil),
		expr.JoinCond{LeftTable: 0, LeftCol: 1, RightTable: 2, RightCol: 0},
		expr.JoinCond{LeftTable: 0, LeftCol: 3, RightTable: 2, RightCol: 3})
	j.Partitions = 4
	agg := NewAgg(j, &AggSpec{GroupTable: 2, GroupCol: 0, Sums: []AggCol{{Table: 0, Col: 2}}})
	ix := NewIndexScan(1, 11, 2, []expr.Pred{{Col: 2, Op: expr.EQ, Lo: 7}})
	for _, tc := range []struct {
		n    *Node
		want string
	}{
		{j, "HashJoin(t0.c1 = t2.c0 AND t0.c3 = t2.c3) par=4"},
		{agg, "HashAgg(g=t2.c0 sum=t0.c2)"},
		{ix, "IndexScan(t1#11 ix=c2 c2 = 7)"},
	} {
		if got := tc.n.Head(); got != tc.want {
			t.Errorf("Head = %q, want %q", got, tc.want)
		}
		if !strings.HasPrefix(tc.n.String(), tc.want+" rows=") {
			t.Errorf("String does not start with Head: %q", tc.n.String())
		}
	}
}

func TestWalkVisitsAllPreOrder(t *testing.T) {
	root := twoJoinPlan()
	var ops []OpType
	root.Walk(func(n *Node) { ops = append(ops, n.Op) })
	want := []OpType{OpNLJoin, OpHashJoin, OpSeqScan, OpSeqScan, OpSeqScan}
	if len(ops) != len(want) {
		t.Fatalf("visited %d nodes, want %d", len(ops), len(want))
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Errorf("visit %d: %v, want %v", i, ops[i], want[i])
		}
	}
	// ChildAt is the same order as arithmetic: the inner join right after the
	// root, the root's second child after the inner join's three nodes.
	if l, r, ir := root.ChildAt(0), root.ChildAt(1), root.Children[0].ChildAt(1); l != 1 || r != 4 || ir != 2 {
		t.Errorf("ChildAt = %d, %d under the root and %d under its left child, want 1, 4, 2", l, r, ir)
	}
}

func TestCloneIsDeep(t *testing.T) {
	root := twoJoinPlan()
	c := root.Clone()
	c.Children[0].Op = OpMergeJoin
	c.Children[1].TableID = 99
	if root.Children[0].Op == OpMergeJoin {
		t.Error("Clone shares internal nodes")
	}
	if root.Children[1].TableID == 99 {
		t.Error("Clone shares leaves")
	}
	// One allocation per node plus one exactly-sized Children slice per
	// internal node: 5 + 2 for two joins over three scans.
	if got := testing.AllocsPerRun(100, func() { root.Clone() }); got != 7 {
		t.Errorf("cloning 5 nodes allocates %.0f times, want 7", got)
	}
}

func TestStringRendersTree(t *testing.T) {
	s := twoJoinPlan().String()
	for _, frag := range []string{"NLJoin", "HashJoin", "SeqScan", "c1 > 5"} {
		if !strings.Contains(s, frag) {
			t.Errorf("plan rendering missing %q in:\n%s", frag, s)
		}
	}
}

func TestQueryBuilding(t *testing.T) {
	q := NewQuery(7, 8, 9)
	q.AddFilter(0, expr.Pred{Col: 2, Op: expr.EQ, Lo: 1}).
		AddJoin(expr.JoinCond{LeftTable: 0, LeftCol: 0, RightTable: 1, RightCol: 1}).
		AddJoin(expr.JoinCond{LeftTable: 1, LeftCol: 0, RightTable: 2, RightCol: 1})
	if q.NumTables() != 3 {
		t.Errorf("NumTables = %d", q.NumTables())
	}
	if len(q.Filters[0]) != 1 || len(q.Joins) != 2 {
		t.Error("builder did not record filters/joins")
	}
}

func TestQuerySignatureDistinguishesTemplates(t *testing.T) {
	q1 := NewQuery(1, 2)
	q1.AddJoin(expr.JoinCond{LeftTable: 0, LeftCol: 0, RightTable: 1, RightCol: 0})
	q2 := NewQuery(1, 2)
	q2.AddJoin(expr.JoinCond{LeftTable: 0, LeftCol: 0, RightTable: 1, RightCol: 0})
	q2.AddFilter(0, expr.Pred{Col: 1, Op: expr.GT, Lo: 3})
	if q1.Signature() == q2.Signature() {
		t.Error("signatures should differ when filters differ")
	}
	q3 := NewQuery(1, 2)
	q3.AddJoin(expr.JoinCond{LeftTable: 0, LeftCol: 0, RightTable: 1, RightCol: 0})
	if q1.Signature() != q3.Signature() {
		t.Error("identical queries should share a signature")
	}
}

func TestOpStrings(t *testing.T) {
	if OpSeqScan.String() != "SeqScan" || OpHashJoin.String() != "HashJoin" ||
		OpNLJoin.String() != "NLJoin" || OpMergeJoin.String() != "MergeJoin" {
		t.Error("OpType.String wrong")
	}
}
