package spatial

import (
	"container/heap"
	"math"
)

// ChooseSubtreeFunc picks which child entry of an internal node should
// receive an insert. This is the hook RLR-tree replaces with a learned
// policy (§3.2).
type ChooseSubtreeFunc func(n *RNode, r Rect) int

// SplitFunc partitions an overflowing entry set into two groups. RLR-tree
// and RW-tree replace it with learned policies.
type SplitFunc func(entries []REntry) (left, right []REntry)

// REntry is one slot of an R-tree node: a bounding rectangle plus either a
// child node (internal) or a data ID (leaf).
type REntry struct {
	Rect  Rect
	Child *RNode
	ID    int
}

// RNode is an R-tree node.
type RNode struct {
	Leaf    bool
	Entries []REntry
}

// RTree is a classical R-tree with pluggable insertion heuristics.
type RTree struct {
	MaxEntries int
	MinEntries int
	// Choose selects the insertion subtree (default: minimum enlargement,
	// ties by area — Guttman's heuristic).
	Choose ChooseSubtreeFunc
	// Split partitions overflowing nodes (default: quadratic split).
	Split SplitFunc

	root   *RNode
	count  int
	nNodes int
}

// NewRTree returns an R-tree with default Guttman heuristics.
func NewRTree(maxEntries int) *RTree {
	if maxEntries < 4 {
		maxEntries = 4
	}
	t := &RTree{
		MaxEntries: maxEntries,
		MinEntries: maxEntries * 2 / 5,
		root:       &RNode{Leaf: true},
		nNodes:     1,
	}
	t.Choose = GreedyChooseSubtree
	t.Split = QuadraticSplit
	return t
}

// GreedyChooseSubtree is Guttman's minimum-enlargement heuristic.
func GreedyChooseSubtree(n *RNode, r Rect) int {
	best := 0
	bestEnl := math.Inf(1)
	bestArea := math.Inf(1)
	for i, e := range n.Entries {
		enl := e.Rect.Enlargement(r)
		area := e.Rect.Area()
		//ml4db:allow floateq "exact tie-break on enlargement: Guttman's heuristic, any branch is correct"
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// QuadraticSplit is Guttman's quadratic split: seed with the pair wasting
// the most area, then assign entries by maximum preference difference.
func QuadraticSplit(entries []REntry) (left, right []REntry) {
	// Pick seeds.
	s1, s2 := 0, 1
	worst := math.Inf(-1)
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			d := entries[i].Rect.Union(entries[j].Rect).Area() -
				entries[i].Rect.Area() - entries[j].Rect.Area()
			if d > worst {
				worst, s1, s2 = d, i, j
			}
		}
	}
	left = append(left, entries[s1])
	right = append(right, entries[s2])
	lRect, rRect := entries[s1].Rect, entries[s2].Rect
	minFill := len(entries)*2/5 + 1
	var rest []REntry
	for i, e := range entries {
		if i != s1 && i != s2 {
			rest = append(rest, e)
		}
	}
	for len(rest) > 0 {
		// Force assignment if one side must take all remaining to reach fill.
		if len(left)+len(rest) <= minFill {
			left = append(left, rest...)
			break
		}
		if len(right)+len(rest) <= minFill {
			right = append(right, rest...)
			break
		}
		// Pick the entry with the largest preference difference.
		bestI, bestDiff := 0, -1.0
		for i, e := range rest {
			d1 := lRect.Enlargement(e.Rect)
			d2 := rRect.Enlargement(e.Rect)
			diff := math.Abs(d1 - d2)
			if diff > bestDiff {
				bestI, bestDiff = i, diff
			}
		}
		e := rest[bestI]
		rest = append(rest[:bestI], rest[bestI+1:]...)
		if lRect.Enlargement(e.Rect) <= rRect.Enlargement(e.Rect) {
			left = append(left, e)
			lRect = lRect.Union(e.Rect)
		} else {
			right = append(right, e)
			rRect = rRect.Union(e.Rect)
		}
	}
	return left, right
}

// MidSplit splits entries by the longer MBR axis at the median — a cheap
// baseline split used by the learned-policy comparisons.
func MidSplit(entries []REntry) (left, right []REntry) {
	mbr := entries[0].Rect
	for _, e := range entries[1:] {
		mbr = mbr.Union(e.Rect)
	}
	byX := mbr.MaxX-mbr.MinX >= mbr.MaxY-mbr.MinY
	sorted := append([]REntry(nil), entries...)
	insertionSortEntries(sorted, byX)
	mid := len(sorted) / 2
	return sorted[:mid], sorted[mid:]
}

func insertionSortEntries(es []REntry, byX bool) {
	key := func(e REntry) float64 {
		c := e.Rect.Center()
		if byX {
			return c.X
		}
		return c.Y
	}
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && key(es[j]) < key(es[j-1]); j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}

// Name implements SpatialIndex.
func (t *RTree) Name() string { return "rtree" }

// Len returns the number of indexed items.
func (t *RTree) Len() int { return t.count }

// Root exposes the root for packing algorithms and invariant checks.
func (t *RTree) Root() *RNode { return t.root }

// SetRoot installs an externally packed tree (used by bulk loaders such as
// PLATON). count is the item total and nodes the node total of the packed
// structure.
func (t *RTree) SetRoot(root *RNode, count, nodes int) {
	t.root = root
	t.count = count
	t.nNodes = nodes
}

// SizeBytes implements SpatialIndex.
func (t *RTree) SizeBytes() int { return t.nNodes * t.MaxEntries * 48 }

// Insert adds an item.
func (t *RTree) Insert(r Rect, id int) {
	entry := REntry{Rect: r, ID: id}
	split := t.insert(t.root, entry)
	if split != nil {
		old := t.root
		t.root = &RNode{Entries: []REntry{
			{Rect: nodeMBR(old), Child: old},
			{Rect: nodeMBR(split), Child: split},
		}}
		t.nNodes++
	}
	t.count++
}

func (t *RTree) insert(n *RNode, e REntry) *RNode {
	if n.Leaf {
		n.Entries = append(n.Entries, e)
		if len(n.Entries) > t.MaxEntries {
			return t.splitNode(n)
		}
		return nil
	}
	i := t.Choose(n, e.Rect)
	child := n.Entries[i].Child
	split := t.insert(child, e)
	n.Entries[i].Rect = n.Entries[i].Rect.Union(e.Rect)
	if split != nil {
		n.Entries[i].Rect = nodeMBR(child)
		n.Entries = append(n.Entries, REntry{Rect: nodeMBR(split), Child: split})
		if len(n.Entries) > t.MaxEntries {
			return t.splitNode(n)
		}
	}
	return nil
}

// splitNode applies the split strategy, keeping the left group in n and
// returning the new right node.
func (t *RTree) splitNode(n *RNode) *RNode {
	left, right := t.Split(n.Entries)
	if len(left) == 0 || len(right) == 0 {
		// A degenerate strategy must not lose entries; fall back.
		left, right = MidSplit(n.Entries)
	}
	n.Entries = left
	t.nNodes++
	return &RNode{Leaf: n.Leaf, Entries: right}
}

func nodeMBR(n *RNode) Rect {
	mbr := n.Entries[0].Rect
	for _, e := range n.Entries[1:] {
		mbr = mbr.Union(e.Rect)
	}
	return mbr
}

// Range implements SpatialIndex; work counts node accesses.
func (t *RTree) Range(q Rect) (ids []int, work int) {
	var walk func(n *RNode)
	walk = func(n *RNode) {
		work++
		for _, e := range n.Entries {
			if !e.Rect.Intersects(q) {
				continue
			}
			if n.Leaf {
				ids = append(ids, e.ID)
			} else {
				walk(e.Child)
			}
		}
	}
	walk(t.root)
	return ids, work
}

// knnItem is a priority-queue element for branch-and-bound KNN.
type knnItem struct {
	dist  float64
	node  *RNode
	entry *REntry
}

type knnHeap []knnItem

func (h knnHeap) Len() int            { return len(h) }
func (h knnHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h knnHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *knnHeap) Push(x interface{}) { *h = append(*h, x.(knnItem)) }
func (h *knnHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// KNN implements SpatialIndex with exact branch-and-bound search.
func (t *RTree) KNN(p Point, k int) (ids []int, work int) {
	h := &knnHeap{{dist: 0, node: t.root}}
	for h.Len() > 0 && len(ids) < k {
		it := heap.Pop(h).(knnItem)
		switch {
		case it.entry != nil:
			ids = append(ids, it.entry.ID)
		default:
			work++
			for i := range it.node.Entries {
				e := &it.node.Entries[i]
				d := e.Rect.MinDistSq(p)
				if it.node.Leaf {
					heap.Push(h, knnItem{dist: d, entry: e})
				} else {
					heap.Push(h, knnItem{dist: d, node: e.Child})
				}
			}
		}
	}
	return ids, work
}

// CheckInvariants verifies structural invariants (every child MBR is covered
// by its parent entry; leaf depth is uniform). Used by property tests.
func (t *RTree) CheckInvariants() bool {
	depth := -1
	ok := true
	var walk func(n *RNode, d int)
	walk = func(n *RNode, d int) {
		if n.Leaf {
			if depth == -1 {
				depth = d
			} else if depth != d {
				ok = false
			}
			return
		}
		for _, e := range n.Entries {
			if !e.Rect.ContainsRect(nodeMBR(e.Child)) {
				ok = false
			}
			walk(e.Child, d+1)
		}
	}
	walk(t.root, 0)
	return ok
}
