package expr

import (
	"fmt"
	"math"
	"strconv"
)

// Op is a comparison operator.
type Op int

// Supported comparison operators.
const (
	EQ Op = iota
	NE
	LT
	LE
	GT
	GE
	BETWEEN // inclusive [Lo, Hi]
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case EQ:
		return "="
	case NE:
		return "<>"
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	case BETWEEN:
		return "between"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Pred is a predicate on one column of a base table: col Op Lo (or
// BETWEEN Lo AND Hi).
type Pred struct {
	Col    int // column index within the base table
	Op     Op
	Lo, Hi int64 // Hi used only by BETWEEN
}

// Eval reports whether value v satisfies the predicate.
func (p Pred) Eval(v int64) bool {
	switch p.Op {
	case EQ:
		return v == p.Lo
	case NE:
		return v != p.Lo
	case LT:
		return v < p.Lo
	case LE:
		return v <= p.Lo
	case GT:
		return v > p.Lo
	case GE:
		return v >= p.Lo
	case BETWEEN:
		return v >= p.Lo && v <= p.Hi
	default:
		return false
	}
}

// String renders the predicate for debugging and plan display.
func (p Pred) String() string { return string(p.AppendTo(nil)) }

// AppendTo appends the predicate's String form to b: "c<col> <op> <lo>", or
// "c<col> between <lo> and <hi>".
func (p Pred) AppendTo(b []byte) []byte {
	b = append(b, 'c')
	b = strconv.AppendInt(b, int64(p.Col), 10)
	if p.Op == BETWEEN {
		b = append(b, " between "...)
		b = strconv.AppendInt(b, p.Lo, 10)
		b = append(b, " and "...)
		return strconv.AppendInt(b, p.Hi, 10)
	}
	b = append(b, ' ')
	b = append(b, p.Op.String()...)
	b = append(b, ' ')
	return strconv.AppendInt(b, p.Lo, 10)
}

// Range returns the value interval [lo, hi] selected by the predicate; a side
// the predicate leaves open takes the domain's end, domLo or domHi. A
// predicate no int64 satisfies (col > MaxInt64, col < MinInt64) yields an
// empty interval, lo > hi. ok is false when the predicate is a disequality
// (NE), which is not an interval.
func (p Pred) Range(domLo, domHi int64) (lo, hi int64, ok bool) {
	switch p.Op {
	case EQ:
		return p.Lo, p.Lo, true
	case LT:
		if p.Lo == math.MinInt64 {
			return p.Lo + 1, p.Lo, true
		}
		return domLo, p.Lo - 1, true
	case LE:
		return domLo, p.Lo, true
	case GT:
		if p.Lo == math.MaxInt64 {
			return p.Lo, p.Lo - 1, true
		}
		return p.Lo + 1, domHi, true
	case GE:
		return p.Lo, domHi, true
	case BETWEEN:
		return p.Lo, p.Hi, true
	default:
		return 0, 0, false
	}
}

// JoinCond is an equi-join condition between a column of one relation and a
// column of another. Tables are referenced by their position in the query's
// table list, not by catalog ID, so the same template can bind different
// tables.
type JoinCond struct {
	LeftTable  int // index into Query.Tables
	LeftCol    int
	RightTable int
	RightCol   int
}

// String renders the join condition.
func (j JoinCond) String() string { return string(j.AppendTo(nil)) }

// AppendTo appends the join condition's String form to b:
// "t<left table>.c<left col> = t<right table>.c<right col>".
func (j JoinCond) AppendTo(b []byte) []byte {
	b = append(b, 't')
	b = strconv.AppendInt(b, int64(j.LeftTable), 10)
	b = append(b, ".c"...)
	b = strconv.AppendInt(b, int64(j.LeftCol), 10)
	b = append(b, " = t"...)
	b = strconv.AppendInt(b, int64(j.RightTable), 10)
	b = append(b, ".c"...)
	return strconv.AppendInt(b, int64(j.RightCol), 10)
}

// Flip returns the same condition with its sides exchanged; equality is
// symmetric.
func (j JoinCond) Flip() JoinCond {
	return JoinCond{LeftTable: j.RightTable, LeftCol: j.RightCol, RightTable: j.LeftTable, RightCol: j.LeftCol}
}
