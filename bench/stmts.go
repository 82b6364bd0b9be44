package main

import (
	"fmt"
	"strings"

	"ml4db/internal/mlmath"
)

// A stmt is one generated statement in structured form plus its SQL text.
// The engine only ever sees sql; the reference evaluator only ever sees the
// structured fields, so a parser bug cannot make the two agree on a wrong
// answer.
type stmt struct {
	tmpl  int // index into sequence.templates
	from  []string
	where []pred
	joins []joinCond
	sel   []colRef // nil = SELECT *
	// order means ORDER BY every selected column DESC. Ordering by the whole
	// projection makes the output a total order (ties are identical rows), so
	// ORDER BY … LIMIT has exactly one right answer.
	order bool
	limit int // negative = no LIMIT
	sql   string
}

// pred is a single-table predicate; tab is a position in stmt.from.
type pred struct {
	tab    int
	col    string
	op     predOp
	lo, hi int64 // hi is used by opBetween only
}

type predOp int

const (
	opEQ predOp = iota
	opGE
	opBetween
)

func (p pred) eval(v int64) bool {
	switch p.op {
	case opEQ:
		return v == p.lo
	case opGE:
		return v >= p.lo
	default:
		return v >= p.lo && v <= p.hi
	}
}

// joinCond is an equi-join between two positions of stmt.from.
type joinCond struct {
	lt int
	lc string
	rt int
	rc string
}

type colRef struct {
	tab int
	col string
}

// render fills s.sql from the structured fields. Every column is qualified:
// the dimension tables share their column names.
func (s *stmt) render() {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.sel == nil {
		b.WriteString("*")
	}
	for i, c := range s.sel {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s.%s", s.from[c.tab], c.col)
	}
	b.WriteString(" FROM ")
	b.WriteString(strings.Join(s.from, ", "))
	sep := " WHERE "
	for _, j := range s.joins {
		fmt.Fprintf(&b, "%s%s.%s = %s.%s", sep, s.from[j.lt], j.lc, s.from[j.rt], j.rc)
		sep = " AND "
	}
	for _, p := range s.where {
		name := s.from[p.tab] + "." + p.col
		switch p.op {
		case opEQ:
			fmt.Fprintf(&b, "%s%s = %d", sep, name, p.lo)
		case opGE:
			fmt.Fprintf(&b, "%s%s >= %d", sep, name, p.lo)
		default:
			fmt.Fprintf(&b, "%s%s BETWEEN %d AND %d", sep, name, p.lo, p.hi)
		}
		sep = " AND "
	}
	if s.order {
		sep = " ORDER BY "
		for _, c := range s.sel {
			fmt.Fprintf(&b, "%s%s.%s DESC", sep, s.from[c.tab], c.col)
			sep = ", "
		}
	}
	if s.limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", s.limit)
	}
	s.sql = b.String()
}

// A sequence is a workload's operation sequence: a pure function of the
// workload name and the seed (never of the data), so the same seed always
// issues the same statements in the same order.
type sequence struct {
	templates   []string
	opsPerRound int
	// cycle is the fixed statement cycle of a warm workload, already in issue
	// order; op i is cycle[i mod len]. Nil for adhoc_plan.
	cycle []stmt
	// fresh generates adhoc_plan's statement for op i. Warm-up ops draw their
	// literals from a range the measured ops never use, so no measured op can
	// hit a plan the warm-up cached.
	fresh func(i int, warmup bool) stmt
}

func (q *sequence) op(i int, warmup bool) stmt {
	if q.cycle != nil {
		return q.cycle[i%len(q.cycle)]
	}
	return q.fresh(i, warmup)
}

func dimName(d int) string { return fmt.Sprintf("dim%d", d) }
func fkName(d int) string  { return fmt.Sprintf("fk%d", d) }

// shuffled renders the statements and puts them in a seed-dependent order.
func shuffled(rng *mlmath.RNG, stmts []stmt) []stmt {
	for i := range stmts {
		stmts[i].render()
	}
	rng.Shuffle(len(stmts), func(i, j int) { stmts[i], stmts[j] = stmts[j], stmts[i] })
	return stmts
}

// Literals are stratified, not drawn independently: each template walks a
// fixed grid of literals and the seed only picks the phase inside a grid
// step (and the issue order). Mean selectivity — and with it rows, work and
// allocations per query — then barely moves from seed to seed, which is
// what lets allocs_per_query carry a 2 % bound.

// pointWarmSequence: three cheap templates, 64 literals each, 192 distinct
// statements — fewer than the plan cache's 256 entries.
func pointWarmSequence(seed uint64, numDims, dimRows int) *sequence {
	rng := mlmath.NewRNG(seed ^ 0x706f696e74)
	const perTemplate = 64
	var stmts []stmt
	// attr2 is Zipf(1.2) over [0,1000): ranks from 550 up each match one or
	// two dozen of 200 k rows, so the index scan is short.
	phase := int64(rng.Intn(7))
	for j := int64(0); j < perTemplate; j++ {
		stmts = append(stmts, stmt{tmpl: 0, from: []string{"fact"}, limit: 10,
			where: []pred{{tab: 0, col: "attr2", op: opEQ, lo: 550 + 7*j + phase}}})
	}
	// attr0 is Normal(500, 150) clamped to [0,1000): a two-value range in
	// either tail (|z| ≥ 2.7) is a narrow index range.
	phase = int64(rng.Intn(2))
	for j := int64(0); j < perTemplate/2; j++ {
		lo := 30 + 2*j + phase
		hi := 969 - 2*j - phase
		stmts = append(stmts,
			stmt{tmpl: 1, from: []string{"fact"}, limit: 20,
				where: []pred{{tab: 0, col: "attr0", op: opBetween, lo: lo, hi: lo + 1}}},
			stmt{tmpl: 1, from: []string{"fact"}, limit: 20,
				where: []pred{{tab: 0, col: "attr0", op: opBetween, lo: hi - 1, hi: hi}}})
	}
	step := int64(dimRows / perTemplate)
	phase = int64(rng.Intn(int(step)))
	for j := int64(0); j < perTemplate; j++ {
		stmts = append(stmts, stmt{tmpl: 2, from: []string{dimName(int(j) % numDims)}, limit: -1,
			where: []pred{{tab: 0, col: "id", op: opEQ, lo: j*step + phase}}})
	}
	return &sequence{
		templates:   []string{"point", "range", "dim"},
		opsPerRound: 50 * len(stmts),
		cycle:       shuffled(rng, stmts),
	}
}

// analyticSequence is shared, byte for byte, by analytic_mem, analytic_par
// and analytic_spill: three heavy templates, 16 literals each.
func analyticSequence(seed uint64) *sequence {
	rng := mlmath.NewRNG(seed ^ 0x616e616c79)
	const perTemplate = 16
	var stmts []stmt
	// Every template reads all of fact and returns a small part of it:
	// Session.Query copies each row it returns once more, so a statement
	// that returns half the table spends a third of its time outside the
	// executor, and this workload exists to measure the executor.
	//
	// Dimensions are filtered by a range of their sequential id, which keeps
	// the same number of dimension rows whatever the seed; a filter on a
	// random attribute of a 2 k-row dimension keeps 180 ± 13 of them, and the
	// join's output — and the allocations per query — would move by 7 % from
	// seed to seed.
	phase := int64(rng.Intn(2))
	for j := int64(0); j < perTemplate; j++ {
		scanFrom := 700 + 2*j + phase // attr0 is Normal(500, 150): keeps about 8 % of fact
		dimFrom := 1880 + 2*j + phase // keeps 6 % to 4.5 % of a 2 k-row dimension
		stmts = append(stmts,
			// Filter scan, every column out.
			stmt{tmpl: 0, from: []string{"fact"}, limit: -1,
				where: []pred{{tab: 0, col: "attr0", op: opGE, lo: scanFrom}}},
			// fact ⋈ dim0: every fact row probes, the dimension filter keeps few.
			stmt{tmpl: 1, from: []string{"fact", "dim0"}, limit: -1,
				joins: []joinCond{{0, "fk0", 1, "id"}},
				sel:   []colRef{{0, "attr0"}, {0, "attr1"}, {1, "a"}, {1, "b"}},
				where: []pred{{tab: 1, col: "id", op: opGE, lo: dimFrom}}},
			// Three-table join (fk1 is Zipf-skewed, fk2 uniform), top 100 by the
			// whole projection.
			stmt{tmpl: 2, from: []string{"fact", "dim1", "dim2"}, limit: 100, order: true,
				joins: []joinCond{{0, "fk1", 1, "id"}, {0, "fk2", 2, "id"}},
				sel:   []colRef{{0, "attr0"}, {0, "attr1"}, {1, "a"}, {2, "b"}},
				where: []pred{{tab: 2, col: "id", op: opGE, lo: 1984 + j/2 + phase}}})
	}
	return &sequence{
		templates:   []string{"filter", "join2", "top3"},
		opsPerRound: len(stmts),
		cycle:       shuffled(rng, stmts),
	}
}

// The adhoc_plan literal plan: fact.attr0 BETWEEN x AND x+adhocWidth and
// fact.attr1 >= y, where (x, y) encodes the op index in mixed radix, so
// every op has a statement shape no earlier op had. Measured ops use
// y in [0, adhocYMeasured); warm-up ops use y from adhocYMeasured up.
const (
	adhocXBase     = 300
	adhocXRange    = 360
	adhocWidth     = 20
	adhocYMeasured = 250
	adhocYWarmup   = 25
)

// adhocSequence: 5- to 7-table star joins over numDims ≥ 6 dimensions.
func adhocSequence(seed uint64, numDims, dimRows int) *sequence {
	xPhase := mlmath.NewRNG(seed ^ 0x6164686f63).Intn(adhocXRange)
	return &sequence{
		templates:   []string{"star5", "star6", "star7"},
		opsPerRound: 480,
		fresh: func(i int, warmup bool) stmt {
			// One generator per op, keyed by (seed, op): op i is the same
			// statement however many ops ran before it.
			rng := mlmath.NewRNG(seed*0x9e3779b97f4a7c15 + uint64(i)<<1 + 1)
			x := int64(adhocXBase + (i+xPhase)%adhocXRange)
			y := int64(i / adhocXRange % adhocYMeasured)
			if warmup {
				y = int64(adhocYMeasured + i/adhocXRange%adhocYWarmup)
			}
			tmpl := i % 3
			s := stmt{tmpl: tmpl, from: []string{"fact"}, limit: -1,
				sel: []colRef{{0, "attr0"}, {0, "attr1"}},
				where: []pred{
					{tab: 0, col: "attr0", op: opBetween, lo: x, hi: x + adhocWidth},
					{tab: 0, col: "attr1", op: opGE, lo: y}}}
			for pos, d := range rng.Perm(numDims)[:4+tmpl] {
				s.from = append(s.from, dimName(d))
				s.joins = append(s.joins, joinCond{0, fkName(d), pos + 1, "id"})
				// Ranges of the sequential id, for the reason analyticSequence gives.
				switch pos {
				case 0:
					s.where = append(s.where, pred{tab: pos + 1, col: "id", op: opGE, lo: int64(dimRows/4 + rng.Intn(dimRows/2))})
					s.sel = append(s.sel, colRef{pos + 1, "a"})
				case 1:
					lo := int64(rng.Intn(dimRows / 2))
					s.where = append(s.where, pred{tab: pos + 1, col: "id", op: opBetween, lo: lo, hi: lo + int64(dimRows/2) - 1})
					s.sel = append(s.sel, colRef{pos + 1, "b"})
				}
			}
			s.render()
			return s
		},
	}
}
