package optimizer

import (
	"fmt"
	"math/bits"

	"ml4db/internal/obs"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/plan"
)

// Optimizer is the expert (System-R style) query optimizer: exhaustive
// dynamic programming over connected join orders using a cardinality
// estimator and a formula cost model.
type Optimizer struct {
	Cat  *catalog.Catalog
	Est  CardEstimator
	Cost CostParams
	// Parallelism is the maximum exchange degree the optimizer may assign to
	// a node's Partitions knob — typically the executor pool's worker count.
	// Values below two leave every plan serial (Partitions zero), which is
	// also the default, so plans stay byte-identical to the pre-parallel
	// optimizer unless a caller opts in.
	Parallelism int
}

// scanIOCost estimates the I/O term of sequentially scanning t: every heap
// page is read once, and the plan is costed for a cold pool — every read
// misses.
func (o *Optimizer) scanIOCost(t *catalog.Table) float64 {
	pages := float64(t.NumDiskPages())
	if pages == 0 {
		return 0
	}
	return o.Cost.PageRead * pages
}

// indexIOCost estimates the I/O term of fetching estFetched rows through an
// index on t: each fetch may touch a distinct page (random access), capped
// at the table's page count, and misses a cold pool.
func (o *Optimizer) indexIOCost(t *catalog.Table, estFetched float64) float64 {
	pages := float64(t.NumDiskPages())
	if pages == 0 {
		return 0
	}
	return o.Cost.PageRead * min(estFetched, pages)
}

// New returns an optimizer with histogram estimation and default (untuned)
// cost parameters.
func New(cat *catalog.Catalog) *Optimizer {
	return &Optimizer{Cat: cat, Est: &HistEstimator{Cat: cat}, Cost: DefaultCostParams()}
}

// Plan returns the cheapest plan for q under the hint set. It errors if the
// query's join graph is disconnected, the hint set admits no operator, or a
// join condition cannot be carried by any join node (see CheckJoins) — the
// last before the estimator is asked anything.
func (o *Optimizer) Plan(q *plan.Query, hint HintSet) (*plan.Node, error) {
	if err := CheckJoins(q); err != nil {
		return nil, err
	}
	est, _ := Estimate(o.Est, q, nil)
	return o.PlanWith(q, hint, est)
}

// PlanWith is Plan over estimates the caller already holds (est must be q's
// table, see Estimate): the join-order search itself, which asks no estimator.
//
// The search is over numbers: its table (see dpEntry) holds, for every set of
// table positions, the estimates of the cheapest plan found for it and how to
// build it, and only the plan it returns is built, once the search is over.
// The planner never looks at how rows are laid out: nodes name base columns.
func (o *Optimizer) PlanWith(q *plan.Query, hint HintSet, est Estimates) (*plan.Node, error) {
	n := q.NumTables()
	if n == 0 {
		return nil, fmt.Errorf("optimizer: empty query")
	}
	if n > 1 && !hint.Viable() {
		return nil, fmt.Errorf("optimizer: hint set %q admits no join operator", hint.Name)
	}
	if n > 20 {
		return nil, fmt.Errorf("optimizer: %d tables exceeds DP limit", n)
	}
	if !connected(q, n) {
		return nil, fmt.Errorf("optimizer: join graph is disconnected")
	}
	var leafBuf [20]*plan.Node // n ≤ 20: the leaves stay off the heap
	leaves := leafBuf[:n]
	memo := make([]dpEntry, 1<<uint(n))
	for pos := range leaves {
		leaves[pos] = o.scanPlan(q, pos, hint, est.Rows[pos])
		m := uint32(1) << uint(pos)
		memo[m] = dpEntry{rows: leaves[pos].EstRows, cost: leaves[pos].EstCost, left: m}
	}
	var allowed uint8 // bit i: the hint allows plan.AllJoinOps[i]
	for i, op := range plan.AllJoinOps {
		if hint.Allows(op) {
			allowed |= 1 << i
		}
	}
	full := uint32(1<<uint(n)) - 1
	for mask := uint32(1); mask <= full; mask++ {
		if bits.OnesCount32(mask) < 2 {
			continue
		}
		lowest := mask & (^mask + 1)
		for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
			if sub&lowest == 0 {
				continue // canonical split: left side holds the lowest bit
			}
			other := mask ^ sub
			if !memo[sub].found() || !memo[other].found() {
				continue
			}
			// Both child orders cross the same conditions.
			crossed, sel := crossingSel(q, est.Sel, sub, other)
			if crossed == 0 {
				continue
			}
			o.costJoins(memo, sub, other, sel, allowed, hint.LeftDeepOnly)
			o.costJoins(memo, other, sub, sel, allowed, hint.LeftDeepOnly)
		}
	}
	// A condition crosses one join node at most, so the nodes' condition
	// lists are cut from one array.
	root, _ := buildPlan(q, memo, leaves, full, make([]expr.JoinCond, 0, len(q.Joins)))
	if err := CheckConds(q, root); err != nil {
		return nil, err
	}
	if q.Agg != nil {
		agg := plan.NewAgg(root, q.Agg)
		agg.EstRows = o.estAggGroups(q, root.EstRows)
		agg.EstCost = root.EstCost + o.Cost.AggCost(root.EstRows, agg.EstRows)
		root = agg
	}
	o.parallelize(root)
	return root, nil
}

// connected reports whether the join conditions of q connect all n ≤ 20 table
// positions, by one union-find pass over them on the stack. A condition
// naming one position twice, or one outside the query, connects nothing — it
// crosses no split (see crosses). Then, and only then, the search finds a
// plan for the full set: every connected set splits into two connected sets
// with a condition crossing them, a left-deep one included (a spanning
// tree's leaf and the rest), and the hint admits an operator (Viable).
func connected(q *plan.Query, n int) bool {
	var parent [20]int
	for i := range n {
		parent[i] = i
	}
	root := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	sets := n
	for _, c := range q.Joins {
		if uint(c.LeftTable) >= uint(n) || uint(c.RightTable) >= uint(n) {
			continue
		}
		if l, r := root(c.LeftTable), root(c.RightTable); l != r {
			parent[l] = r
			sets--
		}
	}
	return sets == 1
}

// dpEntry is the search's record of the cheapest plan found so far for one set
// of table positions (its index in the table, a bitmask): that plan's
// estimated rows and cost, and how to build it — a join by op of the best
// plans of the position sets left and right. A single position's entry is
// its scan, with left the position's own bit and right zero. left is zero
// while no plan has been found.
type dpEntry struct {
	rows, cost  float64
	op          plan.OpType
	left, right uint32
}

func (e *dpEntry) found() bool { return e.left != 0 }

// costJoins costs joining the best plans of the disjoint position sets l and
// r, in that child order, under every operator bit i of allowed admits
// (plan.AllJoinOps[i]), and records a strictly cheaper result as the best
// plan of l|r. sel is the product of the selectivities of the conditions
// crossing l and r (see crossingSel). Being one call per child order keeps
// the arithmetic compiled as the golden plans pin it, NaN payloads included
// (see TestPlanIdentityEdgeGolden).
func (o *Optimizer) costJoins(memo []dpEntry, l, r uint32, sel float64, allowed uint8, leftDeepOnly bool) {
	if leftDeepOnly && bits.OnesCount32(r) > 1 {
		return
	}
	left, right, best := &memo[l], &memo[r], &memo[l|r]
	outRows := left.rows * right.rows * sel
	if outRows < 1 {
		outRows = 1
	}
	for i, op := range plan.AllJoinOps {
		if allowed&(1<<i) == 0 {
			continue
		}
		cost := left.cost + right.cost + o.Cost.JoinCost(op, left.rows, right.rows, outRows)
		if !best.found() || cost < best.cost {
			*best = dpEntry{rows: outRows, cost: cost, op: op, left: l, right: r}
		}
	}
}

// buildPlan builds the plan the search table memo records for the position
// set mask: leaves[pos] for a single position, else a join node over the
// built plans of its two sides, carrying the conditions that cross them.
// Each join node's conditions are appended to conds, and the node keeps its
// stretch of it; buildPlan returns conds as it grew.
func buildPlan(q *plan.Query, memo []dpEntry, leaves []*plan.Node, mask uint32, conds []expr.JoinCond) (*plan.Node, []expr.JoinCond) {
	e := &memo[mask]
	if e.right == 0 {
		return leaves[bits.TrailingZeros32(mask)], conds
	}
	left, conds := buildPlan(q, memo, leaves, e.left, conds)
	right, conds := buildPlan(q, memo, leaves, e.right, conds)
	start := len(conds)
	conds = appendCrossing(conds, q, e.left, e.right)
	node := plan.NewJoin(e.op, left, right, conds[start:len(conds):len(conds)]...)
	node.EstRows, node.EstCost = e.rows, e.cost
	return node, conds
}

// crosses reports whether join condition c has one side in the position set
// left and the other in right (bitmasks), and whether it is declared
// right→left. A position outside the query shifts to no bit and crosses
// nothing.
func crosses(c expr.JoinCond, left, right uint32) (ok, flipped bool) {
	lb, rb := uint32(1)<<uint(c.LeftTable), uint32(1)<<uint(c.RightTable)
	switch {
	case lb&left != 0 && rb&right != 0:
		return true, false
	case lb&right != 0 && rb&left != 0:
		return true, true
	}
	return false, false
}

// appendCrossing appends to dst every join condition of q that crosses the
// position sets left and right, in declaration order, each oriented
// left→right — the conditions a join of the two sides must carry.
func appendCrossing(dst []expr.JoinCond, q *plan.Query, left, right uint32) []expr.JoinCond {
	for _, c := range q.Joins {
		if ok, flipped := crosses(c, left, right); ok {
			if flipped {
				c = c.Flip()
			}
			dst = append(dst, c)
		}
	}
	return dst
}

// crossingSel counts the join conditions of q that cross the position sets
// left and right, without building them (see appendCrossing), and returns the
// product of their selectivities sels[i], multiplied in declaration order.
func crossingSel(q *plan.Query, sels []float64, left, right uint32) (n int, sel float64) {
	sel = 1
	for i, c := range q.Joins {
		if ok, _ := crosses(c, left, right); ok {
			n++
			sel *= sels[i]
		}
	}
	return n, sel
}

// CrossingConds returns the conditions of q a join of the subtrees left and
// right must carry (see plan.Node.Conds); none means joining them would be a
// cross product. Plan builders outside the DP construct joins through it.
func CrossingConds(q *plan.Query, left, right *plan.Node) []expr.JoinCond {
	return appendCrossing(nil, q, tableMask(left), tableMask(right))
}

// tableMask returns the table positions under n as a bitmask.
func tableMask(n *plan.Node) uint32 {
	if n.IsLeaf() {
		return 1 << uint(n.TablePos)
	}
	var m uint32
	for _, c := range n.Children {
		m |= tableMask(c)
	}
	return m
}

// CheckJoins errors unless every join condition of q can be carried by some
// join node: a condition between two different positions of the query always
// crosses exactly one join of a complete plan; one whose sides name the same
// position (a view rewrite produces it when a second condition joins the pair
// the view absorbed), or a position outside the query, crosses none — and an
// estimator must not be asked about it.
func CheckJoins(q *plan.Query) error {
	carriable, n := 0, uint(len(q.Tables))
	for _, c := range q.Joins {
		// A negative position converts to a uint no query is long enough for.
		if c.LeftTable != c.RightTable && uint(c.LeftTable) < n && uint(c.RightTable) < n {
			carriable++
		}
	}
	return errUncarried(carriable, q)
}

// CheckConds errors unless every join condition of q is carried by a join
// node of the complete plan root, so no predicate is ever dropped silently
// (see CheckJoins for the conditions no plan can carry).
func CheckConds(q *plan.Query, root *plan.Node) error {
	carried := 0
	root.Walk(func(n *plan.Node) { carried += len(n.Conds) })
	return errUncarried(carried, q)
}

func errUncarried(carried int, q *plan.Query) error {
	if carried != len(q.Joins) {
		return fmt.Errorf("optimizer: plan carries %d of the query's %d join conditions (each must connect two different table positions)", carried, len(q.Joins))
	}
	return nil
}

// estAggGroups estimates the group count of q's aggregation: the grouping
// column's exact distinct count when statistics exist, capped by the child's
// output estimate.
func (o *Optimizer) estAggGroups(q *plan.Query, childRows float64) float64 {
	groups := childRows
	if q.Agg != nil {
		t := o.Cat.Table(q.Tables[q.Agg.GroupTable])
		if st := t.Columns[q.Agg.GroupCol].Stats; st != nil && st.Distinct > 0 {
			groups = float64(st.Distinct)
		}
	}
	if groups > childRows {
		groups = childRows
	}
	if groups < 1 {
		groups = 1
	}
	return groups
}

// parallelize assigns each node's Partitions knob bottom-up, costing the
// knob explicitly: a node's own (exclusive) cost splits into a
// parallelizable part and a fixed serial part, and partitioning into P
// shards costs par/P + fixed + ExchangeStartup·P. The best P in
// [1, Parallelism] wins; P = 1 keeps the pure serial cost with no startup
// term. EstCost is rebuilt cumulatively afterward, so learned components
// that consume EstCost see the parallel-adjusted plan cost.
func (o *Optimizer) parallelize(root *plan.Node) {
	if o.Parallelism <= 1 {
		return
	}
	var walk func(n *plan.Node) float64
	walk = func(n *plan.Node) float64 {
		childOrig := 0.0
		for _, c := range n.Children {
			childOrig += c.EstCost
		}
		own := n.EstCost - childOrig
		if own < 0 {
			own = 0
		}
		childNew := 0.0
		for _, c := range n.Children {
			childNew += walk(c)
		}
		par, fixed := o.splitParallelizable(n, own)
		bestCost, bestP := own, 1
		if par > 0 {
			for p := 2; p <= o.Parallelism; p++ {
				c := par/float64(p) + fixed + o.Cost.ExchangeStartup*float64(p)
				if c < bestCost {
					bestCost, bestP = c, p
				}
			}
		}
		n.Partitions = bestP
		n.EstCost = childNew + bestCost
		return n.EstCost
	}
	walk(root)
}

// splitParallelizable divides a node's own cost into the part an exchange
// can divide across shards and the part that stays serial, mirroring which
// executor phases exchange.go actually partitions: scans and nested-loop
// pairs divide fully, a hash join's build (and an aggregation's sorted
// emission) stay on the coordinator, and index scans, merge joins, and
// virtual-table scans never partition.
func (o *Optimizer) splitParallelizable(n *plan.Node, own float64) (par, fixed float64) {
	switch n.Op {
	case plan.OpSeqScan:
		if o.Cat.Table(n.TableID).Virtual != nil {
			return 0, own
		}
		return own, 0
	case plan.OpHashJoin:
		build := o.Cost.HashBuild * n.Children[0].EstRows
		if build > own {
			build = own
		}
		return own - build, build
	case plan.OpNLJoin:
		return own, 0
	case plan.OpHashAgg:
		emit := o.Cost.OutputTuple * n.EstRows
		if emit > own {
			emit = own
		}
		return own - emit, emit
	default: // IndexScan, MergeJoin: always serial
		return 0, own
	}
}

// PlanTraced is Plan wrapped in an "optimizer.plan" span under parent,
// annotated with the query size and the chosen plan's estimated cost. A nil
// tracer reduces it to Plan.
func (o *Optimizer) PlanTraced(q *plan.Query, hint HintSet, tr *obs.Tracer, parent *obs.Span) (*plan.Node, error) {
	sp := tr.StartSpan("optimizer.plan", parent)
	p, err := o.Plan(q, hint)
	if p != nil {
		sp.SetInt("tables", int64(q.NumTables())).SetFloat("est_cost", p.EstCost)
	}
	sp.End()
	return p, err
}

// scanPlan picks the cheapest access path for the table at pos: a
// sequential scan, or an index scan through any secondary index whose column
// carries an interval predicate (unless the hint forbids it). estRows is the
// statement's estimate for the position.
func (o *Optimizer) scanPlan(q *plan.Query, pos int, hint HintSet, estRows float64) *plan.Node {
	tid := q.Tables[pos]
	t := o.Cat.Table(tid)
	rows := float64(t.NumRows())
	best := plan.NewScan(pos, tid, q.Filters[pos])
	best.EstRows = estRows
	best.EstCost = o.Cost.ScanCost(rows) + o.scanIOCost(t)
	if !hint.NoIndexScan {
		for _, col := range t.IndexedCols() {
			fetched, ok := o.estIndexFetched(t, q.Filters[pos], col)
			if !ok {
				continue
			}
			cost := o.Cost.IndexScanCost(rows, fetched) + o.indexIOCost(t, fetched)
			if cost < best.EstCost {
				node := plan.NewIndexScan(pos, tid, col, q.Filters[pos])
				node.EstRows = best.EstRows
				node.EstFetched = fetched
				node.EstCost = cost
				best = node
			}
		}
	}
	return best
}

// estIndexFetched estimates how many rows an index on col would fetch given
// the interval predicates on that column. ok is false when no interval
// predicate constrains the column.
func (o *Optimizer) estIndexFetched(t *catalog.Table, filters []expr.Pred, col int) (float64, bool) {
	st := t.Columns[col].Stats
	if st == nil || st.Count == 0 {
		return 0, false
	}
	sel := 1.0
	found := false
	for _, f := range filters {
		if f.Col != col {
			continue
		}
		if lo, hi, isInterval := f.Range(st.Min, st.Max); isInterval {
			sel *= st.SelectivityRange(lo, hi)
			found = true
		}
	}
	if !found {
		return 0, false
	}
	fetched := float64(t.NumRows()) * sel
	if fetched < 1 {
		fetched = 1
	}
	return fetched, true
}

// Annotate fills EstRows and EstCost on every node of an externally
// constructed plan (as built by NEO, RTOS, or Balsa) and returns the total
// estimated cost of the root. q must pass CheckJoins: Annotate asks the
// estimator for the whole statement's table, once.
func (o *Optimizer) Annotate(q *plan.Query, n *plan.Node) float64 {
	est, _ := Estimate(o.Est, q, nil)
	return o.annotate(q, n, est)
}

func (o *Optimizer) annotate(q *plan.Query, n *plan.Node, est Estimates) float64 {
	if n.IsLeaf() {
		t := o.Cat.Table(n.TableID)
		n.EstRows = est.Rows[n.TablePos]
		if n.Op == plan.OpIndexScan {
			fetched, ok := o.estIndexFetched(t, n.Filters, n.IndexCol)
			if !ok {
				fetched = float64(t.NumRows())
			}
			n.EstFetched = fetched
			n.EstCost = o.Cost.IndexScanCost(float64(t.NumRows()), fetched) + o.indexIOCost(t, fetched)
		} else {
			n.EstCost = o.Cost.ScanCost(float64(t.NumRows())) + o.scanIOCost(t)
		}
		return n.EstCost
	}
	if n.Op == plan.OpHashAgg {
		lc := o.annotate(q, n.Children[0], est)
		n.EstRows = o.estAggGroups(q, n.Children[0].EstRows)
		n.EstCost = lc + o.Cost.AggCost(n.Children[0].EstRows, n.EstRows)
		return n.EstCost
	}
	lc := o.annotate(q, n.Children[0], est)
	rc := o.annotate(q, n.Children[1], est)
	n.EstRows = est.SubtreeRows(q, n.Tables())
	n.EstCost = lc + rc + o.Cost.JoinCost(n.Op, n.Children[0].EstRows, n.Children[1].EstRows, n.EstRows)
	return n.EstCost
}

// PlanCostActual computes the formula cost of a plan from what one execution
// of it measured (actuals is that execution's exec.Result.Actuals: one record
// per node, pre-order) — the quantity ParamTree fits its parameters against.
func (o *Optimizer) PlanCostActual(n *plan.Node, actuals []plan.Actual) float64 {
	p, self := o.Cost, actuals[0]
	if n.IsLeaf() {
		t := o.Cat.Table(n.TableID)
		// The terms use the rows read and the misses the execution actually
		// charged, so true params reproduce actual work exactly on disk
		// tables too, where a SeqScan reads no row of a page it skips.
		io := p.PageRead * float64(self.PageMisses)
		if n.Op == plan.OpIndexScan {
			return p.IndexScanCost(float64(t.NumRows()), float64(self.Fetched)) + io
		}
		return p.ScanCost(float64(self.Fetched)) + io
	}
	left := actuals[n.ChildAt(0):]
	c := o.PlanCostActual(n.Children[0], left)
	if n.Op == plan.OpHashAgg {
		return c + p.AggCost(float64(left[0].Rows), float64(self.Rows))
	}
	right := actuals[n.ChildAt(1):]
	c += o.PlanCostActual(n.Children[1], right)
	return c + p.JoinCost(n.Op, float64(left[0].Rows), float64(right[0].Rows), float64(self.Rows))
}

// CheapestHint plans q under every hint set, over one table of estimates, and
// returns the plans with their estimated costs — the candidate set a bandit
// optimizer selects among.
func (o *Optimizer) CheapestHint(q *plan.Query, hints []HintSet) (plans []*plan.Node, costs []float64, err error) {
	if len(hints) == 0 {
		return nil, nil, fmt.Errorf("optimizer: no hints given")
	}
	if err := CheckJoins(q); err != nil {
		return nil, nil, err
	}
	est, _ := Estimate(o.Est, q, nil)
	for _, h := range hints {
		p, perr := o.PlanWith(q, h, est)
		if perr != nil {
			return nil, nil, perr
		}
		plans = append(plans, p)
		costs = append(costs, p.EstCost)
	}
	return plans, costs, nil
}
