package optimizer

import (
	"math"
	"testing"

	"ml4db/internal/mlmath"
	"ml4db/internal/sqlkit/datagen"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/plan"
)

// bruteForceBest exhaustively enumerates every connected join tree and
// operator assignment, mirroring the DP's cost recurrence, and returns the
// minimum total cost.
func bruteForceBest(o *Optimizer, q *plan.Query, hint HintSet) float64 {
	n := q.NumTables()
	type state struct {
		cost, rows float64
	}
	memo := map[uint32]state{} // best over ALL split choices, like the DP
	var solve func(mask uint32) (state, bool)
	solve = func(mask uint32) (state, bool) {
		if s, ok := memo[mask]; ok {
			return s, true
		}
		// Singleton: scan.
		if mask&(mask-1) == 0 {
			pos := 0
			for mask>>uint(pos)&1 == 0 {
				pos++
			}
			sp := o.scanPlan(q, pos, hint, o.Est.ScanRows(q, pos))
			s := state{cost: sp.EstCost, rows: sp.EstRows}
			memo[mask] = s
			return s, true
		}
		best := state{cost: math.Inf(1)}
		found := false
		// All proper splits, both orientations.
		for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
			other := mask ^ sub
			l, okL := solve(sub)
			r, okR := solve(other)
			if !okL || !okR {
				continue
			}
			cond, ok := condBetweenSets(q, sub, other)
			if !ok {
				continue
			}
			if hint.LeftDeepOnly && other&(other-1) != 0 {
				continue
			}
			sel := o.Est.JoinSelectivity(q, cond)
			outRows := l.rows * r.rows * sel
			if outRows < 1 {
				outRows = 1
			}
			for _, op := range plan.AllJoinOps {
				if !hint.Allows(op) {
					continue
				}
				c := l.cost + r.cost + o.Cost.JoinCost(op, l.rows, r.rows, outRows)
				if c < best.cost {
					best = state{cost: c, rows: outRows}
					found = true
				}
			}
		}
		if found {
			memo[mask] = best
		}
		return best, found
	}
	s, ok := solve(uint32(1<<uint(n)) - 1)
	if !ok {
		return math.Inf(1)
	}
	return s.cost
}

func condBetweenSets(q *plan.Query, left, right uint32) (expr.JoinCond, bool) {
	for _, c := range q.Joins {
		lIn := left>>uint(c.LeftTable)&1 == 1
		rIn := right>>uint(c.RightTable)&1 == 1
		if lIn && rIn {
			return c, true
		}
		if left>>uint(c.RightTable)&1 == 1 && right>>uint(c.LeftTable)&1 == 1 {
			return expr.JoinCond{LeftTable: c.RightTable, LeftCol: c.RightCol, RightTable: c.LeftTable, RightCol: c.LeftCol}, true
		}
	}
	return expr.JoinCond{}, false
}

// TestDPFindsOptimalPlans: the DP's plan cost must equal the exhaustive
// minimum on random chain queries under every hint shape.
func TestDPFindsOptimalPlans(t *testing.T) {
	rng := mlmath.NewRNG(1)
	sch, err := datagen.NewChainSchema(rng, []int{800, 600, 400, 300, 200})
	if err != nil {
		t.Fatal(err)
	}
	o := New(sch.Cat)
	o.Cost = TrueCostParams()
	hints := []HintSet{
		NoHint(),
		{Name: "hash-only", JoinOps: []plan.OpType{plan.OpHashJoin}},
		{Name: "left-deep", LeftDeepOnly: true},
	}
	for trial := 0; trial < 15; trial++ {
		n := 3 + trial%3
		ids := sch.TableIDs[:n]
		q := plan.NewQuery(ids...)
		for i := 0; i+1 < n; i++ {
			q.AddJoin(expr.JoinCond{LeftTable: i, LeftCol: 1, RightTable: i + 1, RightCol: 0})
		}
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.6 {
				c := int64(rng.Intn(900))
				q.AddFilter(i, expr.Pred{Col: 2, Op: expr.BETWEEN, Lo: c, Hi: c + int64(rng.Intn(300))})
			}
		}
		for _, h := range hints {
			p, err := o.Plan(q, h)
			if err != nil {
				t.Fatalf("trial %d hint %s: %v", trial, h.Name, err)
			}
			want := bruteForceBest(o, q, h)
			if math.Abs(p.EstCost-want) > 1e-6*math.Max(1, want) {
				t.Errorf("trial %d hint %s: DP cost %v != exhaustive optimum %v", trial, h.Name, p.EstCost, want)
			}
		}
	}
}
