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

// TestStringRendering pins the rendered forms, which are part of exported
// identities (the engine's statement shape, plan display): String and
// AppendTo, onto an empty and onto a non-empty buffer, give the same bytes.
func TestStringRendering(t *testing.T) {
	for _, c := range []struct {
		v interface {
			String() string
			AppendTo([]byte) []byte
		}
		want string
	}{
		{Pred{Col: 3, Op: BETWEEN, Lo: 1, Hi: 9}, "c3 between 1 and 9"},
		{Pred{Col: 0, Op: NE, Lo: -7}, "c0 <> -7"},
		{Pred{Col: 12, Op: GE, Lo: math.MaxInt64}, "c12 >= 9223372036854775807"},
		{Pred{Col: 1, Op: LT, Lo: math.MinInt64}, "c1 < -9223372036854775808"},
		{Pred{Col: 2, Op: BETWEEN, Lo: math.MinInt64, Hi: math.MaxInt64}, "c2 between -9223372036854775808 and 9223372036854775807"},
		{Pred{Col: 4, Op: Op(42), Lo: 5}, "c4 op(42) 5"},
		{JoinCond{LeftTable: 0, LeftCol: 1, RightTable: 2, RightCol: 3}, "t0.c1 = t2.c3"},
		{JoinCond{LeftTable: 11, LeftCol: 0, RightTable: 7, RightCol: 10}, "t11.c0 = t7.c10"},
	} {
		if got := c.v.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
		if got := string(c.v.AppendTo([]byte("x|"))); got != "x|"+c.want {
			t.Errorf("AppendTo = %q, want %q", got, "x|"+c.want)
		}
	}
	if EQ.String() != "=" || BETWEEN.String() != "between" {
		t.Error("Op.String wrong")
	}
}
