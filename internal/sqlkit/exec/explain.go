package exec

import (
	"fmt"
	"strings"
	"time"

	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/plan"
)

// OpStats are the per-operator measurements behind EXPLAIN ANALYZE. The
// Subtree* fields are inclusive (the operator and everything below it); the
// exclusive fields attribute each unit to exactly one operator, so summing
// an exclusive field over all operators reproduces the query total —
// exclusive Work sums to Counters.Total(), and the exclusive Counters sum
// category-by-category to the executor's Counters. That identity is what
// keeps the model-feature vector (Counters.Vec) and the EXPLAIN ANALYZE
// readout from ever disagreeing.
type OpStats struct {
	// Loops is 1 once the operator has run and 0 if it never did (a budget
	// abort stopped the execution first). How many tuples it produced is the
	// same visit's plan.Actual.
	Loops int64

	// Work and Counters are exclusive: charged to this operator alone.
	Work     int64
	Counters Counters
	// Dur is the exclusive wall time, read through the executor's Clock.
	Dur time.Duration

	// SubtreeWork, SubtreeCounters, and SubtreeDur are inclusive.
	SubtreeWork     int64
	SubtreeCounters Counters
	SubtreeDur      time.Duration
}

// Explain is the EXPLAIN ANALYZE view of one execution: per-operator stats
// beside the execution's Actuals, both indexed by the operator's pre-order
// position in Root (see plan.Actual), renderable as an indented text tree. An
// entry is one visit: a node reachable twice has two.
type Explain struct {
	Root    *plan.Node
	cat     *catalog.Catalog // says which scans read a disk table
	actuals []plan.Actual    // the execution's Result.Actuals
	stats   []OpStats
}

// Stats returns the stats recorded at pre-order position ord (nil if that
// operator never ran, e.g. after a work-budget abort).
func (x *Explain) Stats(ord int) *OpStats {
	if x == nil || x.stats[ord].Loops == 0 {
		return nil
	}
	return &x.stats[ord]
}

// TotalWork sums the exclusive per-operator work — by construction equal to
// the execution's Counters.Total().
func (x *Explain) TotalWork() int64 {
	var total int64
	for i := range x.stats {
		total += x.stats[i].Work
	}
	return total
}

// finish derives the exclusive fields of the subtree whose root n sits at
// ord: each operator's subtree totals minus the subtree totals of its
// children (all zero for a child that never ran). The exclusive values
// telescope, so their sum over the tree equals the root's subtree total
// exactly.
func (x *Explain) finish(n *plan.Node, ord int) {
	st := &x.stats[ord]
	st.Work, st.Counters, st.Dur = st.SubtreeWork, st.SubtreeCounters, st.SubtreeDur
	for i, c := range n.Children {
		at := ord + n.ChildAt(i)
		cst := &x.stats[at]
		st.Work -= cst.SubtreeWork
		st.Counters = addCounters(st.Counters, cst.SubtreeCounters, -1)
		st.Dur -= cst.SubtreeDur
		x.finish(c, at)
	}
}

// String renders the EXPLAIN ANALYZE tree: one line per operator with
// estimated vs actual rows, loops, exclusive work units and their category
// breakdown, and exclusive operator time; a SeqScan of a disk table also
// prints the pages its zone maps skipped. Under a ManualClock the rendering
// is fully deterministic (golden-tested).
func (x *Explain) String() string {
	var b strings.Builder
	x.render(&b, x.Root, 0, 0)
	return b.String()
}

func (x *Explain) render(b *strings.Builder, n *plan.Node, ord, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.Head())
	if st := x.Stats(ord); st != nil {
		fmt.Fprintf(b, " est_rows=%.0f rows=%d loops=%d work=%d time=%dµs%s",
			n.EstRows, x.actuals[ord].Rows, st.Loops, st.Work, st.Dur.Microseconds(), counterBreakdown(st.Counters))
		if n.Op == plan.OpSeqScan && x.cat.Table(n.TableID).Disk != nil {
			fmt.Fprintf(b, " skipped=%d", x.actuals[ord].PagesSkipped)
		}
	} else {
		fmt.Fprintf(b, " est_rows=%.0f (never executed)", n.EstRows)
	}
	b.WriteByte('\n')
	for i, c := range n.Children {
		x.render(b, c, ord+n.ChildAt(i), depth+1)
	}
}

// counterNames are the work categories' short names, in Counters.Vec order.
var counterNames = [...]string{"scan", "build", "probe", "nl", "msort", "mscan", "out", "iprobe", "ifetch", "pmiss", "agg"}

// counterBreakdown lists the nonzero work categories in Counters.Vec order.
func counterBreakdown(c Counters) string {
	var parts []string
	for i, v := range c.Vec() {
		if v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%.0f", counterNames[i], v))
		}
	}
	if len(parts) == 0 {
		return ""
	}
	return " [" + strings.Join(parts, " ") + "]"
}

// addCounters returns a + k·b category-wise: k = 1 adds, k = -1 subtracts.
func addCounters(a, b Counters, k int64) Counters {
	return Counters{
		ScanTuples:  a.ScanTuples + k*b.ScanTuples,
		HashBuild:   a.HashBuild + k*b.HashBuild,
		HashProbe:   a.HashProbe + k*b.HashProbe,
		NLPairs:     a.NLPairs + k*b.NLPairs,
		MergeSort:   a.MergeSort + k*b.MergeSort,
		MergeScan:   a.MergeScan + k*b.MergeScan,
		OutputTuple: a.OutputTuple + k*b.OutputTuple,
		IndexProbe:  a.IndexProbe + k*b.IndexProbe,
		IndexFetch:  a.IndexFetch + k*b.IndexFetch,
		PageMiss:    a.PageMiss + k*b.PageMiss,
		AggInput:    a.AggInput + k*b.AggInput,
	}
}

// opSpanNames maps each operator to its constant span name, avoiding string
// concatenation on the tracing path.
var opSpanNames = [...]string{
	plan.OpSeqScan: "exec.SeqScan", plan.OpHashJoin: "exec.HashJoin", plan.OpNLJoin: "exec.NLJoin",
	plan.OpMergeJoin: "exec.MergeJoin", plan.OpIndexScan: "exec.IndexScan", plan.OpHashAgg: "exec.HashAgg",
}

func opSpanName(op plan.OpType) string {
	if op < 0 || int(op) >= len(opSpanNames) {
		return "exec.Op"
	}
	return opSpanNames[op]
}
