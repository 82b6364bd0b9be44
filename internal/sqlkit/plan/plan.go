package plan

import (
	"fmt"
	"strings"

	"ml4db/internal/sqlkit/expr"
)

// Query is a select-project-join query: a list of base tables, conjunctive
// single-table filters, and equi-join conditions. This is exactly the SPJ
// class the paper notes learned optimizers handle.
type Query struct {
	// Tables holds catalog table IDs. Positions within this slice are the
	// "table positions" predicates and joins refer to.
	Tables []int
	// Filters[pos] are conjunctive predicates on the table at pos, in
	// AddFilter order; len(Filters) == len(Tables).
	Filters [][]expr.Pred
	// Joins are equi-join conditions between table positions.
	Joins []expr.JoinCond
	// Agg, when non-nil, applies a grouped aggregation on top of the join
	// result (see AggSpec). The optimizer plans it as an OpHashAgg root.
	Agg *AggSpec
}

// AggSpec is an optional grouped aggregation over the query result: one
// GROUP BY column and any number of SUM columns, each named as a (table
// position, column) pair like join conditions. The result has one row per
// group — [group value, COUNT(*), SUM(col)...] — emitted in ascending group
// order, which keeps aggregated results deterministic.
type AggSpec struct {
	// GroupTable/GroupCol name the grouping column.
	GroupTable, GroupCol int
	// Sums name the columns summed per group, in output order.
	Sums []AggCol
}

// AggCol names one aggregated column as a (table position, column) pair.
type AggCol struct {
	Table, Col int
}

// SetAgg installs a grouped aggregation on the query.
func (q *Query) SetAgg(groupTable, groupCol int, sums ...AggCol) *Query {
	q.Agg = &AggSpec{GroupTable: groupTable, GroupCol: groupCol, Sums: sums}
	return q
}

// NewQuery constructs an empty query over the given catalog table IDs.
func NewQuery(tableIDs ...int) *Query {
	return &Query{Tables: tableIDs, Filters: make([][]expr.Pred, len(tableIDs))}
}

// AddFilter appends a predicate on the table at position pos.
func (q *Query) AddFilter(pos int, p expr.Pred) *Query {
	q.Filters[pos] = append(q.Filters[pos], p)
	return q
}

// AddJoin appends an equi-join condition.
func (q *Query) AddJoin(j expr.JoinCond) *Query {
	q.Joins = append(q.Joins, j)
	return q
}

// NumTables returns the number of base tables.
func (q *Query) NumTables() int { return len(q.Tables) }

// Signature returns a short string identifying the query's structure
// (tables, joins, filter columns) — used as a template key by workload-drift
// experiments.
func (q *Query) Signature() string {
	var b strings.Builder
	for i, t := range q.Tables {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "T%d", t)
		for _, f := range q.Filters[i] {
			fmt.Fprintf(&b, ":c%d%s", f.Col, f.Op)
		}
	}
	for _, j := range q.Joins {
		fmt.Fprintf(&b, "|%s", j)
	}
	if q.Agg != nil {
		fmt.Fprintf(&b, "|G%d.c%d", q.Agg.GroupTable, q.Agg.GroupCol)
		for _, s := range q.Agg.Sums {
			fmt.Fprintf(&b, "|S%d.c%d", s.Table, s.Col)
		}
	}
	return b.String()
}

// OpType identifies a physical operator.
type OpType int

// Physical operators of the execution engine.
const (
	OpSeqScan OpType = iota
	OpHashJoin
	OpNLJoin // tuple nested-loop join
	OpMergeJoin
	// OpIndexScan reads rows through a secondary index on IndexCol using
	// the node's interval predicate on that column, then applies the
	// remaining filters.
	OpIndexScan
	// OpHashAgg groups its single child's rows by Agg's grouping column and
	// emits one row per group — [group, COUNT(*), SUM(col)...] — in
	// ascending group order.
	OpHashAgg
)

// String implements fmt.Stringer.
func (o OpType) String() string {
	switch o {
	case OpSeqScan:
		return "SeqScan"
	case OpHashJoin:
		return "HashJoin"
	case OpNLJoin:
		return "NLJoin"
	case OpMergeJoin:
		return "MergeJoin"
	case OpIndexScan:
		return "IndexScan"
	case OpHashAgg:
		return "HashAgg"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// AllJoinOps lists the join operators the optimizer may choose among.
var AllJoinOps = []OpType{OpHashJoin, OpNLJoin, OpMergeJoin}

// Node is a physical plan node. A leaf is a SeqScan of a base table with
// pushed-down filters; internal nodes are joins. Cost and cardinality
// annotations are filled by the optimizer: the "database statistics" features
// of plan representation (§3.1). A tree is read-only once planning hands it
// out: the executor writes nothing into it (what a run measured comes back as
// []Actual), so sessions share one tree; a caller that edits one Clones first.
//
// A node names columns the way the query does — as (table position, column)
// references into the base tables — never as offsets into some operator's
// output row. How rows are laid out is the executor's private knowledge
// (exec.ColOffset), so planners, plan builders and telemetry are unaffected
// when the row format changes.
type Node struct {
	Op       OpType
	Children []*Node

	// Scan fields (SeqScan and IndexScan).
	TablePos int // position in the query's table list
	TableID  int // catalog table ID
	Filters  []expr.Pred
	// IndexCol is the indexed column an IndexScan reads through.
	IndexCol int

	// Conds (joins) holds every condition of the query that crosses the
	// node's two children, in declaration order, each oriented so that its
	// Left side names a table under Children[0] and its Right side one under
	// Children[1]. Hash and merge joins key on Conds[0] and filter on the
	// rest; a join node always has at least one. Read-only once built:
	// clones share it.
	Conds []expr.JoinCond

	// Agg (OpHashAgg) names the grouping and summed columns. Read-only and
	// shared with the query it was planned from, and between clones.
	Agg *AggSpec

	// Partitions is the exchange degree: how many contiguous shards the
	// operator's loop splits its input into. Zero or one mean one shard:
	// the same loop over the whole input, on the calling goroutine. The
	// executor produces bit-identical rows and counters for every value —
	// partitioning only trades latency — so the optimizer costs the knob
	// and the plan cache keys on it purely for performance coherence.
	Partitions int

	// Optimizer annotations.
	EstRows float64
	EstCost float64

	// EstFetched is the optimizer's estimate of rows fetched through the
	// index before residual filtering (IndexScan only).
	EstFetched float64
}

// Actual is what one operator measured in one execution. The executor returns
// one per visit of a node (a node reachable twice has two), at the node's Walk
// (pre-order) position: the root at 0, each child ChildAt past its parent.
type Actual struct {
	Rows int64 // tuples the operator produced
	// Fetched is the rows a scan read, a work unit each: a SeqScan's from its
	// table (none of a skipped page's), an IndexScan's through the index.
	Fetched      int64
	PageMisses   int64 // buffer-pool misses the scan charged (disk tables only)
	PagesSkipped int64 // pages a SeqScan of a disk table skipped through its zone maps
}

// ChildAt returns how far past n's own pre-order position its i-th child
// sits: right after n for the first, after each earlier sibling's whole
// subtree for the next. It is the one written statement of that layout.
func (n *Node) ChildAt(i int) int {
	at := 1
	for _, c := range n.Children[:i] {
		at += c.NumNodes()
	}
	return at
}

// IsLeaf reports whether the node is a scan.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// NewIndexScan constructs an index-scan leaf reading through the secondary
// index on col.
func NewIndexScan(tablePos, tableID, col int, filters []expr.Pred) *Node {
	return &Node{Op: OpIndexScan, TablePos: tablePos, TableID: tableID, IndexCol: col, Filters: filters}
}

// Tables returns the set of table positions covered by the subtree.
func (n *Node) Tables() []int {
	if n.IsLeaf() {
		return []int{n.TablePos}
	}
	var out []int
	for _, c := range n.Children {
		out = append(out, c.Tables()...)
	}
	return out
}

// NumNodes returns the node count of the subtree.
func (n *Node) NumNodes() int {
	c := 1
	for _, ch := range n.Children {
		c += ch.NumNodes()
	}
	return c
}

// Depth returns the height of the subtree (1 for a leaf).
func (n *Node) Depth() int {
	d := 0
	for _, ch := range n.Children {
		if cd := ch.Depth(); cd > d {
			d = cd
		}
	}
	return d + 1
}

// Walk visits the subtree pre-order.
func (n *Node) Walk(visit func(*Node)) {
	visit(n)
	for _, c := range n.Children {
		c.Walk(visit)
	}
}

// Leaf returns the scan of table position tablePos in the subtree, or nil.
func (n *Node) Leaf(tablePos int) *Node {
	if n.IsLeaf() {
		if n.TablePos == tablePos {
			return n
		}
		return nil
	}
	for _, c := range n.Children {
		if l := c.Leaf(tablePos); l != nil {
			return l
		}
	}
	return nil
}

// Clone deep-copies the plan tree's nodes for a caller that edits them
// (annotations, Partitions, a leaf's Filters slot); the read-only Filters,
// Conds and Agg values are shared.
func (n *Node) Clone() *Node {
	out := *n
	if len(n.Children) > 0 {
		out.Children = make([]*Node, len(n.Children))
		for i, c := range n.Children {
			out.Children[i] = c.Clone()
		}
	}
	return &out
}

// String renders the plan as an indented tree.
func (n *Node) String() string {
	var b strings.Builder
	n.render(&b, 0)
	return b.String()
}

func (n *Node) render(b *strings.Builder, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.Head())
	fmt.Fprintf(b, " rows=%.0f cost=%.0f\n", n.EstRows, n.EstCost)
	for _, c := range n.Children {
		c.render(b, depth+1)
	}
}

// Head renders the operator head shared by String and EXPLAIN ANALYZE: the
// operator name with its scan target and filters, join conditions or
// aggregate columns, then the partition degree when above one.
func (n *Node) Head() string {
	var b strings.Builder
	switch {
	case n.IsLeaf():
		fmt.Fprintf(&b, "%s(t%d#%d", n.Op, n.TablePos, n.TableID)
		if n.Op == OpIndexScan {
			fmt.Fprintf(&b, " ix=c%d", n.IndexCol)
		}
		for _, f := range n.Filters {
			fmt.Fprintf(&b, " %s", f)
		}
	case n.Agg != nil:
		fmt.Fprintf(&b, "%s(g=t%d.c%d", n.Op, n.Agg.GroupTable, n.Agg.GroupCol)
		for _, c := range n.Agg.Sums {
			fmt.Fprintf(&b, " sum=t%d.c%d", c.Table, c.Col)
		}
	default:
		fmt.Fprintf(&b, "%s(", n.Op)
		for i, c := range n.Conds {
			if i > 0 {
				b.WriteString(" AND ")
			}
			b.WriteString(c.String())
		}
	}
	b.WriteByte(')')
	if n.Partitions > 1 {
		fmt.Fprintf(&b, " par=%d", n.Partitions)
	}
	return b.String()
}

// NewScan constructs a scan leaf.
func NewScan(tablePos, tableID int, filters []expr.Pred) *Node {
	return &Node{Op: OpSeqScan, TablePos: tablePos, TableID: tableID, Filters: filters}
}

// NewJoin constructs a join node over two children. conds are the conditions
// crossing them, each oriented left→right (see Node.Conds).
func NewJoin(op OpType, left, right *Node, conds ...expr.JoinCond) *Node {
	return &Node{Op: op, Children: []*Node{left, right}, Conds: conds}
}

// NewAgg constructs a hash-aggregation node over one child.
func NewAgg(child *Node, spec *AggSpec) *Node {
	return &Node{Op: OpHashAgg, Children: []*Node{child}, Agg: spec}
}
