package exec

import (
	"fmt"
	"strings"
	"time"

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
	// Rows is the number of tuples the operator produced; Loops counts how
	// many times it ran (1 per execution in this engine).
	Rows  int64
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
// addressable by plan node, renderable as an indented text tree.
type Explain struct {
	Root  *plan.Node
	stats map[*plan.Node]*OpStats
}

// Stats returns the recorded stats for a plan node (nil if the node never
// ran, e.g. after a work-budget abort).
func (x *Explain) Stats(n *plan.Node) *OpStats {
	if x == nil {
		return nil
	}
	return x.stats[n]
}

// TotalWork sums the exclusive per-operator work — by construction equal to
// the execution's Counters.Total().
func (x *Explain) TotalWork() int64 {
	var total int64
	for _, st := range x.stats {
		total += st.Work
	}
	return total
}

// stat returns (creating on first use) the stats slot for a node.
func (x *Explain) stat(n *plan.Node) *OpStats {
	st, ok := x.stats[n]
	if !ok {
		st = &OpStats{}
		x.stats[n] = st
	}
	return st
}

// finish derives the exclusive fields: each operator's subtree totals minus
// the subtree totals of its children. The exclusive values telescope, so
// their sum over the tree equals the root's subtree total exactly.
//
// A child node referenced more than once by the same parent (a rescanned
// subtree, e.g. a self-join reusing one scan on both sides) holds ONE stats
// entry that already accumulates every loop, so its subtree totals are
// subtracted once per distinct child — subtracting per reference would
// double-count the rescans and break the telescoping identity against
// Counters.Total().
func (x *Explain) finish() {
	x.Root.Walk(func(n *plan.Node) {
		st, ok := x.stats[n]
		if !ok {
			return
		}
		st.Work = st.SubtreeWork
		st.Counters = st.SubtreeCounters
		st.Dur = st.SubtreeDur
		for i, c := range n.Children {
			shared := false
			for _, prev := range n.Children[:i] {
				if prev == c {
					shared = true
					break
				}
			}
			if shared {
				continue
			}
			if cst, ok := x.stats[c]; ok {
				st.Work -= cst.SubtreeWork
				st.Counters = subCounters(st.Counters, cst.SubtreeCounters)
				st.Dur -= cst.SubtreeDur
			}
		}
	})
}

// String renders the EXPLAIN ANALYZE tree: one line per operator with
// estimated vs actual rows, loops, exclusive work units and their category
// breakdown, and exclusive operator time. Under a ManualClock the rendering
// is fully deterministic (golden-tested).
func (x *Explain) String() string {
	var b strings.Builder
	x.render(&b, x.Root, 0)
	return b.String()
}

func (x *Explain) render(b *strings.Builder, n *plan.Node, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.Head())
	if st, ok := x.stats[n]; ok {
		fmt.Fprintf(b, " est_rows=%.0f rows=%d loops=%d work=%d time=%dµs%s",
			n.EstRows, st.Rows, st.Loops, st.Work, st.Dur.Microseconds(), counterBreakdown(st.Counters))
	} else {
		fmt.Fprintf(b, " est_rows=%.0f (never executed)", n.EstRows)
	}
	b.WriteByte('\n')
	for _, c := range n.Children {
		x.render(b, c, depth+1)
	}
}

// counterBreakdown lists the nonzero work categories in Counters.Vec order.
func counterBreakdown(c Counters) string {
	parts := make([]string, 0, 10)
	add := func(name string, v int64) {
		if v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", name, v))
		}
	}
	add("scan", c.ScanTuples)
	add("build", c.HashBuild)
	add("probe", c.HashProbe)
	add("nl", c.NLPairs)
	add("msort", c.MergeSort)
	add("mscan", c.MergeScan)
	add("out", c.OutputTuple)
	add("iprobe", c.IndexProbe)
	add("ifetch", c.IndexFetch)
	add("pmiss", c.PageMiss)
	add("agg", c.AggInput)
	if len(parts) == 0 {
		return ""
	}
	return " [" + strings.Join(parts, " ") + "]"
}

// addCounters returns a + b category-wise.
func addCounters(a, b Counters) Counters {
	return Counters{
		ScanTuples:  a.ScanTuples + b.ScanTuples,
		HashBuild:   a.HashBuild + b.HashBuild,
		HashProbe:   a.HashProbe + b.HashProbe,
		NLPairs:     a.NLPairs + b.NLPairs,
		MergeSort:   a.MergeSort + b.MergeSort,
		MergeScan:   a.MergeScan + b.MergeScan,
		OutputTuple: a.OutputTuple + b.OutputTuple,
		IndexProbe:  a.IndexProbe + b.IndexProbe,
		IndexFetch:  a.IndexFetch + b.IndexFetch,
		PageMiss:    a.PageMiss + b.PageMiss,
		AggInput:    a.AggInput + b.AggInput,
	}
}

// subCounters returns a − b category-wise.
func subCounters(a, b Counters) Counters {
	return Counters{
		ScanTuples:  a.ScanTuples - b.ScanTuples,
		HashBuild:   a.HashBuild - b.HashBuild,
		HashProbe:   a.HashProbe - b.HashProbe,
		NLPairs:     a.NLPairs - b.NLPairs,
		MergeSort:   a.MergeSort - b.MergeSort,
		MergeScan:   a.MergeScan - b.MergeScan,
		OutputTuple: a.OutputTuple - b.OutputTuple,
		IndexProbe:  a.IndexProbe - b.IndexProbe,
		IndexFetch:  a.IndexFetch - b.IndexFetch,
		PageMiss:    a.PageMiss - b.PageMiss,
		AggInput:    a.AggInput - b.AggInput,
	}
}

// opSpanName maps an operator to its constant span name, avoiding string
// concatenation on the tracing path.
func opSpanName(op plan.OpType) string {
	switch op {
	case plan.OpSeqScan:
		return "exec.SeqScan"
	case plan.OpIndexScan:
		return "exec.IndexScan"
	case plan.OpHashJoin:
		return "exec.HashJoin"
	case plan.OpNLJoin:
		return "exec.NLJoin"
	case plan.OpMergeJoin:
		return "exec.MergeJoin"
	case plan.OpHashAgg:
		return "exec.HashAgg"
	default:
		return "exec.Op"
	}
}
