package mlindex

import (
	"ml4db/internal/mlmath"
	"ml4db/internal/nn"
	"ml4db/internal/spatial"
)

// AIRTree is an "AI + R"-tree (Abdullah-Al-Mamun et al.): an ordinary R-tree
// augmented with a learned access path. The AI-tree component turns range
// search into leaf classification — a trained mapping from query regions to
// the leaf nodes that can contain results — and a learned router sends each
// query down whichever path (AI or R) is predicted cheaper. High-overlap
// queries benefit from skipping extraneous internal-node traversal; low-
// overlap queries stay on the classical R-tree.
type AIRTree struct {
	Tree *spatial.RTree
	// leaves are the host tree's leaf nodes; the AI path addresses them
	// directly.
	leaves []*spatial.RNode
	// grid[c] lists the leaves whose MBR intersects cell c — the
	// classification table of the AI-tree (a degenerate but exact
	// multi-label classifier over query cells).
	grid     [][]int32
	gridSide int
	// Router predicts P(AI path cheaper) from query features.
	Router *nn.MLP
}

// NewAIRTree wraps a bulk-loaded R-tree over the items.
func NewAIRTree(items []spatial.Item, leafCap, gridSide int, rng *mlmath.RNG) *AIRTree {
	t := &AIRTree{
		Tree:     spatial.STRBulkLoad(items, leafCap),
		gridSide: gridSide,
		Router:   nn.NewMLP([]int{4, 12, 1}, nn.Tanh{}, nn.Sigmoid{}, rng),
	}
	t.collectLeaves()
	t.buildGrid()
	return t
}

func (t *AIRTree) collectLeaves() {
	var walk func(n *spatial.RNode)
	walk = func(n *spatial.RNode) {
		if n.Leaf {
			t.leaves = append(t.leaves, n)
			return
		}
		for _, e := range n.Entries {
			walk(e.Child)
		}
	}
	walk(t.Tree.Root())
}

// buildGrid labels each cell with the leaves whose *items* touch it. This is
// the trained multi-label classifier of the AI-tree: a leaf whose MBR
// overlaps a query but whose items lie elsewhere is never returned — the
// "extraneous leaf accesses" the AI-tree skips.
func (t *AIRTree) buildGrid() {
	g := t.gridSide
	t.grid = make([][]int32, g*g)
	for li, leaf := range t.leaves {
		for _, e := range leaf.Entries {
			x0, y0 := t.cellOf(e.Rect.MinX), t.cellOf(e.Rect.MinY)
			x1, y1 := t.cellOf(e.Rect.MaxX), t.cellOf(e.Rect.MaxY)
			for x := x0; x <= x1; x++ {
				for y := y0; y <= y1; y++ {
					c := y*g + x
					if k := len(t.grid[c]); k > 0 && t.grid[c][k-1] == int32(li) {
						continue
					}
					t.grid[c] = append(t.grid[c], int32(li))
				}
			}
		}
	}
}

func (t *AIRTree) cellOf(v float64) int {
	c := int(v * float64(t.gridSide))
	if c < 0 {
		c = 0
	}
	if c >= t.gridSide {
		c = t.gridSide - 1
	}
	return c
}

// aiRange executes the learned access path: classify the query into
// candidate leaves via the grid, then scan exactly those leaves. work counts
// leaf accesses plus one unit for the classifier inference (the grid lookup
// is an in-memory model evaluation, not storage I/O).
func (t *AIRTree) aiRange(q spatial.Rect) (ids []int, work int) {
	x0, y0 := t.cellOf(q.MinX), t.cellOf(q.MinY)
	x1, y1 := t.cellOf(q.MaxX), t.cellOf(q.MaxY)
	work++ // classifier inference
	seen := make(map[int32]bool)
	for x := x0; x <= x1; x++ {
		for y := y0; y <= y1; y++ {
			for _, li := range t.grid[y*t.gridSide+x] {
				seen[li] = true
			}
		}
	}
	for li := range seen {
		leaf := t.leaves[li]
		work++
		for _, e := range leaf.Entries {
			if e.Rect.Intersects(q) {
				ids = append(ids, e.ID)
			}
		}
	}
	return ids, work
}

// queryFeatures builds the router's input: width, height, area, and the
// grid-estimated candidate-leaf count (an overlap proxy).
func (t *AIRTree) queryFeatures(q spatial.Rect) []float64 {
	w := q.MaxX - q.MinX
	h := q.MaxY - q.MinY
	cells := float64((t.cellOf(q.MaxX)-t.cellOf(q.MinX))+1) * float64((t.cellOf(q.MaxY)-t.cellOf(q.MinY))+1)
	return []float64{w, h, w * h, cells / float64(t.gridSide*t.gridSide)}
}

// TrainRouter labels training queries by executing both paths and fits the
// router classifier.
func (t *AIRTree) TrainRouter(queries []spatial.Rect, epochs int, rng *mlmath.RNG) {
	var xs, ys [][]float64
	for _, q := range queries {
		_, wAI := t.aiRange(q)
		_, wR := t.Tree.Range(q)
		label := 0.0
		if wAI < wR {
			label = 1
		}
		xs = append(xs, t.queryFeatures(q))
		ys = append(ys, []float64{label})
	}
	t.Router.Fit(xs, ys, nn.FitOptions{Epochs: epochs, BatchSize: 16, Optimizer: nn.NewAdam(0.01), RNG: rng})
}

// Range routes the query to the predicted-cheaper path.
func (t *AIRTree) Range(q spatial.Rect) (ids []int, work int) {
	if t.Router.Predict1(t.queryFeatures(q)) > 0.5 {
		return t.aiRange(q)
	}
	return t.Tree.Range(q)
}

// RangeForced executes a specific path ("ai" or "rtree") for evaluation.
func (t *AIRTree) RangeForced(q spatial.Rect, ai bool) ([]int, int) {
	if ai {
		return t.aiRange(q)
	}
	return t.Tree.Range(q)
}

// KNN delegates to the host tree (the AI path serves range queries).
func (t *AIRTree) KNN(p spatial.Point, k int) ([]int, int) { return t.Tree.KNN(p, k) }

// Name identifies the index.
func (t *AIRTree) Name() string { return "airtree" }

// SizeBytes reports host structure + grid + router.
func (t *AIRTree) SizeBytes() int {
	s := t.Tree.SizeBytes() + nn.ParamCount(t.Router)*8
	for _, cell := range t.grid {
		s += 4 * len(cell)
	}
	return s
}
