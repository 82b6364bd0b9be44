package tree

import (
	"math"

	"ml4db/internal/mlmath"
	"ml4db/internal/nn"
)

// EncTree is a feature-annotated binary tree — a query plan after feature
// encoding. Leaves have nil children; unary nodes are not used by this
// engine's plans.
type EncTree struct {
	Feat        []float64
	Left, Right *EncTree
}

// NumNodes counts the nodes of the subtree.
func (t *EncTree) NumNodes() int {
	if t == nil {
		return 0
	}
	return 1 + t.Left.NumNodes() + t.Right.NumNodes()
}

// Depth returns the height of the subtree (1 for a leaf).
func (t *EncTree) Depth() int {
	if t == nil {
		return 0
	}
	l, r := t.Left.Depth(), t.Right.Depth()
	if r > l {
		l = r
	}
	return l + 1
}

// Flatten returns the nodes in depth-first pre-order.
func (t *EncTree) Flatten() []*EncTree {
	var out []*EncTree
	var walk func(*EncTree)
	walk = func(n *EncTree) {
		if n == nil {
			return
		}
		out = append(out, n)
		walk(n.Left)
		walk(n.Right)
	}
	walk(t)
	return out
}

// Encoder turns an EncTree into a representation vector inside an autodiff
// graph, so gradients from a task head flow back into encoder parameters.
type Encoder interface {
	nn.Module
	// Name identifies the architecture ("treelstm", "treecnn", ...).
	Name() string
	// OutDim is the representation width.
	OutDim() int
	// EncodeG builds the encoding computation in g and returns the
	// representation node.
	EncodeG(g *nn.Graph, t *EncTree) *nn.VNode
}

// FlatEncoder is the parameter-free "Feature Vector" strategy: node features
// are laid out into a fixed-size vector with zero padding. Nodes are
// assigned slots breadth-first (level order), which keeps the root and top
// joins at stable positions across plan shapes — the level-structured
// encodings of ReJOIN-style methods. Trees larger than MaxNodes are
// truncated.
type FlatEncoder struct {
	FeatDim  int
	MaxNodes int
}

// NewFlatEncoder returns a flat encoder for trees up to maxNodes nodes.
func NewFlatEncoder(featDim, maxNodes int) *FlatEncoder {
	return &FlatEncoder{FeatDim: featDim, MaxNodes: maxNodes}
}

// Params implements nn.Module (no learnable parameters).
func (f *FlatEncoder) Params() []*nn.Param { return nil }

// Name implements Encoder.
func (f *FlatEncoder) Name() string { return "flat" }

// OutDim implements Encoder.
func (f *FlatEncoder) OutDim() int { return f.FeatDim * f.MaxNodes }

// EncodeG implements Encoder.
func (f *FlatEncoder) EncodeG(g *nn.Graph, t *EncTree) *nn.VNode {
	out := make([]float64, f.OutDim())
	queue := []*EncTree{t}
	for i := 0; len(queue) > 0 && i < f.MaxNodes; i++ {
		n := queue[0]
		queue = queue[1:]
		copy(out[i*f.FeatDim:(i+1)*f.FeatDim], n.Feat)
		if n.Left != nil {
			queue = append(queue, n.Left)
		}
		if n.Right != nil {
			queue = append(queue, n.Right)
		}
	}
	return g.Input(out)
}

func newInit(rng *mlmath.RNG, n int, scale float64) *nn.Param {
	p := nn.NewParam(n)
	p.InitUniform(rng, scale)
	return p
}

// xavier is the Glorot-uniform initialization bound √(6/(in+out)).
func xavier(in, out int) float64 {
	return math.Sqrt(6 / float64(in+out))
}
