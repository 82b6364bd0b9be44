package exec

import (
	"fmt"

	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/plan"
)

// ColOffset returns the offset, within the rows subtree produces, of column
// col of the table at query position tablePos. ok is false when no scan under
// subtree reads that position, or subtree is an aggregation (whose rows are
// [group, COUNT(*), SUM...], not base columns).
//
// This is the single statement of the row layout: a scan emits its table's
// columns in catalog order, and a join emits its left child's row followed by
// its right child's — so a subtree's row is its leaves' columns concatenated
// in leaf order. Plans name columns as (table position, column) references
// and everything outside this package that needs an offset asks here.
// Operators resolve their references through it once per execution, never per
// row. Between operators an offset indexes a batch's columns (batch.go), of
// which only the ones somebody reads are filled; with a nil Options.Output it
// also indexes the rows of Result.Rows.
func ColOffset(cat *catalog.Catalog, subtree *plan.Node, tablePos, col int) (off int, ok bool) {
	if subtree.Op == plan.OpHashAgg {
		return 0, false
	}
	base, ok := leafBase(cat, subtree, tablePos)
	return base + col, ok
}

// leafBase returns the offset at which the leaf scanning tablePos starts in
// n's rows, or n's full row width and false when no leaf under n scans it.
func leafBase(cat *catalog.Catalog, n *plan.Node, tablePos int) (int, bool) {
	if n.IsLeaf() {
		if n.TablePos == tablePos {
			return 0, true
		}
		return cat.Table(n.TableID).NumCols(), false
	}
	off := 0
	for _, c := range n.Children {
		w, found := leafBase(cat, c, tablePos)
		off += w
		if found {
			return off, true
		}
	}
	return off, false
}

// width returns the number of layout offsets in n's output.
func width(cat *catalog.Catalog, n *plan.Node) int {
	if n.Op == plan.OpHashAgg && n.Agg != nil {
		return 2 + len(n.Agg.Sums)
	}
	w, _ := leafBase(cat, n, -1) // no leaf scans position −1: the walk adds up every leaf
	return w
}

// keyPair is one join condition resolved to offsets: row l of the left input
// and row r of the right satisfy it when their columns keyPair.l and
// keyPair.r hold equal values — lc[l] == rc[r], once the inputs ran and those
// columns were taken dense.
type keyPair struct {
	l, r   int
	lc, rc column
}

// joinKeys resolves a join node's conditions to offsets into its children's
// layouts (see ColOffset) and splits need between the children, each share
// marking the columns the conditions read.
func (s *execState) joinKeys(n *plan.Node, need []bool) (keys []keyPair, needL, needR []bool, err error) {
	if len(n.Conds) == 0 {
		return nil, nil, nil, fmt.Errorf("exec: %v carries no join condition", n.Op)
	}
	lw := width(s.e.Cat, n.Children[0])
	need = append(s.a.bools.cut(len(need))[:0], need...)
	keys = s.a.keys.cut(len(n.Conds))
	for i, c := range n.Conds {
		l, lok := ColOffset(s.e.Cat, n.Children[0], c.LeftTable, c.LeftCol)
		r, rok := ColOffset(s.e.Cat, n.Children[1], c.RightTable, c.RightCol)
		if !lok || !rok {
			return nil, nil, nil, fmt.Errorf("exec: %v condition %v names a table its inputs do not scan", n.Op, c)
		}
		keys[i] = keyPair{l: l, r: r}
		need[l], need[lw+r] = true, true
	}
	return keys, need[:lw], need[lw:], nil
}

// matches reports whether row l of the left input and row r of the right
// satisfy every condition in keys.
func matches(keys []keyPair, l, r int) bool {
	for _, k := range keys {
		if k.lc[l] != k.rc[r] {
			return false
		}
	}
	return true
}
