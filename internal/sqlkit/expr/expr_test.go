package expr

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPredEval(t *testing.T) {
	cases := []struct {
		p    Pred
		v    int64
		want bool
	}{
		{Pred{Op: EQ, Lo: 5}, 5, true},
		{Pred{Op: EQ, Lo: 5}, 6, false},
		{Pred{Op: NE, Lo: 5}, 6, true},
		{Pred{Op: LT, Lo: 5}, 4, true},
		{Pred{Op: LT, Lo: 5}, 5, false},
		{Pred{Op: LE, Lo: 5}, 5, true},
		{Pred{Op: GT, Lo: 5}, 6, true},
		{Pred{Op: GE, Lo: 5}, 5, true},
		{Pred{Op: GE, Lo: 5}, 4, false},
		{Pred{Op: BETWEEN, Lo: 2, Hi: 4}, 3, true},
		{Pred{Op: BETWEEN, Lo: 2, Hi: 4}, 2, true},
		{Pred{Op: BETWEEN, Lo: 2, Hi: 4}, 4, true},
		{Pred{Op: BETWEEN, Lo: 2, Hi: 4}, 5, false},
	}
	for _, c := range cases {
		if got := c.p.Eval(c.v); got != c.want {
			t.Errorf("%v.Eval(%d) = %v, want %v", c.p, c.v, got, c.want)
		}
	}
}

// TestRangeConsistentWithEval: for interval-expressible predicates, Eval(v)
// must equal v ∈ Range.
func TestRangeConsistentWithEval(t *testing.T) {
	const domLo, domHi = int64(-100), int64(100)
	ops := []Op{EQ, LT, LE, GT, GE, BETWEEN}
	f := func(rawOp uint8, lo, hi int8, v int8) bool {
		p := Pred{Op: ops[int(rawOp)%len(ops)], Lo: int64(lo), Hi: int64(hi)}
		if p.Op == BETWEEN && p.Hi < p.Lo {
			p.Lo, p.Hi = p.Hi, p.Lo
		}
		rlo, rhi, ok := p.Range(domLo, domHi)
		if !ok {
			return false // all listed ops are interval-expressible
		}
		// Range clamps to the domain, so probe only in-domain values.
		val := int64(v) % (domHi + 1)
		inRange := val >= rlo && val <= rhi
		return p.Eval(val) == inRange
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}

	// The ends of int64 over the full domain: "beyond the end" is an empty
	// interval (lo > hi), not a wrapped-around full one.
	ends := []int64{math.MinInt64, math.MinInt64 + 1, 0, math.MaxInt64 - 1, math.MaxInt64}
	for _, op := range ops[:5] {
		for _, lit := range ends {
			p := Pred{Op: op, Lo: lit}
			rlo, rhi, _ := p.Range(math.MinInt64, math.MaxInt64)
			for _, v := range ends {
				if got := v >= rlo && v <= rhi; got != p.Eval(v) {
					t.Errorf("%s: Range [%d, %d] contains %d = %v, Eval says %v", p, rlo, rhi, v, got, p.Eval(v))
				}
			}
		}
	}
}

func TestRangeNEIsNotInterval(t *testing.T) {
	p := Pred{Op: NE, Lo: 3}
	if _, _, ok := p.Range(0, 10); ok {
		t.Error("NE should not be interval-expressible")
	}
}

func TestJoinCondTouches(t *testing.T) {
	j := JoinCond{LeftTable: 0, LeftCol: 1, RightTable: 2, RightCol: 0}
	if !j.Touches(0) || !j.Touches(2) || j.Touches(1) {
		t.Error("Touches wrong")
	}
}

func TestStringRendering(t *testing.T) {
	p := Pred{Col: 3, Op: BETWEEN, Lo: 1, Hi: 9}
	if p.String() != "c3 between 1 and 9" {
		t.Errorf("Pred.String = %q", p.String())
	}
	j := JoinCond{LeftTable: 0, LeftCol: 1, RightTable: 2, RightCol: 3}
	if j.String() != "t0.c1 = t2.c3" {
		t.Errorf("JoinCond.String = %q", j.String())
	}
	if EQ.String() != "=" || BETWEEN.String() != "between" {
		t.Error("Op.String wrong")
	}
}
