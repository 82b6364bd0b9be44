package main

import (
	"fmt"
	"sort"

	"ml4db/internal/sqlkit/catalog"
)

// refDB is the reference evaluator's view of the data: the column arrays of
// every base table, captured before any spill drops them from the catalog.
// It shares nothing with the engine but those arrays — no parser, optimizer,
// index, executor or buffer pool.
type refDB struct {
	tables map[string]*refTable
}

type refTable struct {
	cols map[string][]int64
	rows int
	// byVal[col] maps a value to the rows holding it, built on first use. It
	// stands in for the inner loop of a nested-loop join: the rows it returns
	// are exactly those the inner scan would have kept, found without
	// scanning 2 k dimension rows per fact row.
	byVal map[string]map[int64][]int32
	// order is the column order of SELECT *.
	order []string
}

func newRefDB(cat *catalog.Catalog) *refDB {
	db := &refDB{tables: map[string]*refTable{}}
	for _, t := range cat.Tables {
		if t.Data == nil {
			continue // virtual or already spilled
		}
		rt := &refTable{cols: map[string][]int64{}, rows: t.NumRows(), byVal: map[string]map[int64][]int32{}}
		for c, col := range t.Columns {
			rt.cols[col.Name] = t.Data[c]
			rt.order = append(rt.order, col.Name)
		}
		db.tables[t.Name] = rt
	}
	return db
}

func (t *refTable) lookup(col string, v int64) []int32 {
	m := t.byVal[col]
	if m == nil {
		m = make(map[int64][]int32)
		for r, x := range t.cols[col] {
			m[x] = append(m[x], int32(r))
		}
		t.byVal[col] = m
	}
	return m[v]
}

// mix is the splitmix64 finaliser.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// rowHash is position-sensitive within the row.
func rowHash(row []int64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range row {
		h = mix(h + uint64(v))
	}
	return h
}

// A reference is the right answer to one statement, in the cheapest form a
// result can be compared against without allocating.
type reference struct {
	// count is the number of rows the statement must return.
	count int
	// sum is the order-insensitive checksum (Σ rowHash) of the full result,
	// used when no LIMIT truncates it.
	sum uint64
	// ordered is the order-sensitive checksum of the returned rows, used for
	// ORDER BY statements.
	ordered uint64
	// members holds the multiplicity of every matching row, used when LIMIT
	// truncates an unordered result: any count rows out of the matching
	// multiset are right, so the check is membership, not equality.
	members map[uint64]int
	mode    refMode
}

type refMode int

const (
	refMultiset refMode = iota
	refOrdered
	refSubset
)

func foldOrdered(h, rh uint64) uint64 { return mix(h ^ rh) }

// check reports whether rows is a right answer. It does not allocate.
func (r *reference) check(rows [][]int64) bool {
	if len(rows) != r.count {
		return false
	}
	switch r.mode {
	case refOrdered:
		var h uint64
		for _, row := range rows {
			h = foldOrdered(h, rowHash(row))
		}
		return h == r.ordered
	case refSubset:
		// count is at most a LIMIT of a few dozen: the quadratic multiplicity
		// count needs no map, and the hashes fit on the stack.
		var buf [64]uint64
		hs := buf[:0]
		for _, row := range rows {
			hs = append(hs, rowHash(row))
		}
		for i, h := range hs {
			seen := 0
			for _, other := range hs[:i+1] {
				if other == h {
					seen++
				}
			}
			if seen > r.members[h] {
				return false
			}
		}
		return true
	default:
		var sum uint64
		for _, row := range rows {
			sum += rowHash(row)
		}
		return sum == r.sum
	}
}

// eval computes the reference for s by a left-deep loop nest in FROM order:
// every table after the first must join to an earlier one.
func (db *refDB) eval(s *stmt) (*reference, error) {
	n := len(s.from)
	tabs := make([]*refTable, n)
	for i, name := range s.from {
		if tabs[i] = db.tables[name]; tabs[i] == nil {
			return nil, fmt.Errorf("reference: no base table %q", name)
		}
	}
	sel := s.sel
	if sel == nil {
		for pos, t := range tabs {
			for _, c := range t.order {
				sel = append(sel, colRef{pos, c})
			}
		}
	}
	// Per position: its single-table predicates, and its join conditions to
	// earlier positions, with the column arrays resolved once.
	type boundPred struct {
		pred
		vals []int64
	}
	type boundJoin struct {
		earlier      int
		evals, rvals []int64
		rcol         string
	}
	preds := make([][]boundPred, n)
	for _, p := range s.where {
		preds[p.tab] = append(preds[p.tab], boundPred{p, tabs[p.tab].cols[p.col]})
	}
	back := make([][]boundJoin, n)
	for _, j := range s.joins {
		if j.lt > j.rt {
			j = joinCond{j.rt, j.rc, j.lt, j.lc}
		}
		back[j.rt] = append(back[j.rt], boundJoin{j.lt, tabs[j.lt].cols[j.lc], tabs[j.rt].cols[j.rc], j.rc})
	}
	for pos := 1; pos < n; pos++ {
		if len(back[pos]) == 0 {
			return nil, fmt.Errorf("reference: %s joins no earlier table", s.from[pos])
		}
	}
	selVals := make([][]int64, len(sel))
	for i, c := range sel {
		selVals[i] = tabs[c.tab].cols[c.col]
	}

	ref := &reference{}
	truncating := s.limit >= 0
	if truncating && !s.order {
		ref.members = map[uint64]int{}
	}
	var sorted [][]int64 // projected rows, kept only for ORDER BY
	bound := make([]int32, n)
	out := make([]int64, len(sel))
	matches := 0

	accept := func(pos int, r int32) bool {
		for _, p := range preds[pos] {
			if !p.eval(p.vals[r]) {
				return false
			}
		}
		for _, j := range back[pos] {
			if j.evals[bound[j.earlier]] != j.rvals[r] {
				return false
			}
		}
		return true
	}
	var nest func(pos int)
	nest = func(pos int) {
		if pos == n {
			for i, c := range sel {
				out[i] = selVals[i][bound[c.tab]]
			}
			matches++
			switch {
			case s.order:
				sorted = append(sorted, append([]int64(nil), out...))
			case truncating:
				ref.members[rowHash(out)]++
			default:
				ref.sum += rowHash(out)
			}
			return
		}
		if pos == 0 {
			for r := int32(0); int(r) < tabs[0].rows; r++ {
				if accept(0, r) {
					bound[0] = r
					nest(1)
				}
			}
			return
		}
		j := back[pos][0]
		for _, r := range tabs[pos].lookup(j.rcol, j.evals[bound[j.earlier]]) {
			if accept(pos, r) {
				bound[pos] = r
				nest(pos + 1)
			}
		}
	}
	nest(0)

	ref.count = matches
	if truncating && s.limit < matches {
		ref.count = s.limit
	}
	switch {
	case s.order:
		ref.mode = refOrdered
		sort.Slice(sorted, func(a, b int) bool {
			for i := range sorted[a] {
				if sorted[a][i] != sorted[b][i] {
					return sorted[a][i] > sorted[b][i]
				}
			}
			return false
		})
		for _, row := range sorted[:ref.count] {
			ref.ordered = foldOrdered(ref.ordered, rowHash(row))
		}
	case truncating && s.limit < matches:
		ref.mode = refSubset
	case truncating:
		// LIMIT did not bite: the whole multiset must come back.
		for h, k := range ref.members {
			ref.sum += h * uint64(k)
		}
		ref.members = nil
	}
	return ref, nil
}
