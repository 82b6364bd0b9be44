package nn

import (
	"math"

	"ml4db/internal/mlmath"
)

// VNode is a vector-valued node in a reverse-mode autodiff graph. Nodes are
// created in topological (forward) order by Graph ops; Graph.Backward then
// replays them in reverse. This powers the recursive tree encoders (TreeLSTM,
// TreeCNN, tree Transformer) whose computation graphs follow the query plan's
// shape and therefore cannot be expressed as a fixed layer stack.
type VNode struct {
	Val  []float64
	Grad []float64
	back func()
}

func (g *Graph) newNode(val []float64, back func()) *VNode {
	n := &VNode{Val: val, Grad: make([]float64, len(val)), back: back}
	g.nodes = append(g.nodes, n)
	return n
}

// Graph records the forward pass of one example.
type Graph struct {
	nodes []*VNode
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{} }

// Backward seeds root's gradient with seed and propagates gradients to every
// node and parameter that contributed to it.
func (g *Graph) Backward(root *VNode, seed []float64) {
	if len(seed) != len(root.Grad) {
		//ml4db:allow nakedpanic "caller bug: seed gradient must match output width"
		panic("nn: Backward seed size mismatch")
	}
	mlmath.AddTo(root.Grad, seed)
	for i := len(g.nodes) - 1; i >= 0; i-- {
		if g.nodes[i].back != nil {
			g.nodes[i].back()
		}
	}
}

// Input creates a leaf node holding constant input features.
func (g *Graph) Input(v []float64) *VNode { return g.newNode(v, nil) }

// Zero creates a leaf node of n zeros (the initial hidden/cell states of
// recursive encoders).
func (g *Graph) Zero(n int) *VNode { return g.newNode(make([]float64, n), nil) }

// ParamSlice exposes p.Val[off:off+n] as a graph node so gradients flow back
// into the parameter — used for learned embedding tables where a row is
// selected by index.
func (g *Graph) ParamSlice(p *Param, off, n int) *VNode {
	node := g.newNode(mlmath.Clone(p.Val[off:off+n]), nil)
	node.back = func() {
		for i := range node.Grad {
			p.Grad[off+i] += node.Grad[i]
		}
	}
	return node
}

// Affine computes W·x + b where W is a Param of shape out×in (row-major) and
// b a Param of length out. Pass b == nil to omit the bias.
func (g *Graph) Affine(w *Param, b *Param, out, in int, x *VNode) *VNode {
	if len(x.Val) != in {
		//ml4db:allow nakedpanic "caller bug: input width fixed by layer construction"
		panic("nn: Affine input size mismatch")
	}
	val := make([]float64, out)
	for o := 0; o < out; o++ {
		val[o] = mlmath.Dot(w.Val[o*in:(o+1)*in], x.Val)
		if b != nil {
			val[o] += b.Val[o]
		}
	}
	n := g.newNode(val, nil)
	n.back = func() {
		for o := 0; o < out; o++ {
			gr := n.Grad[o]
			if gr == 0 {
				continue
			}
			if b != nil {
				b.Grad[o] += gr
			}
			wRow := w.Val[o*in : (o+1)*in]
			gRow := w.Grad[o*in : (o+1)*in]
			for i := 0; i < in; i++ {
				gRow[i] += gr * x.Val[i]
				x.Grad[i] += gr * wRow[i]
			}
		}
	}
	return n
}

// Add sums any number of equally sized nodes element-wise.
func (g *Graph) Add(xs ...*VNode) *VNode {
	if len(xs) == 0 {
		//ml4db:allow nakedpanic "caller bug: Add requires at least one operand"
		panic("nn: Add of nothing")
	}
	val := mlmath.Clone(xs[0].Val)
	for _, x := range xs[1:] {
		mlmath.AddTo(val, x.Val)
	}
	n := g.newNode(val, nil)
	n.back = func() {
		for _, x := range xs {
			mlmath.AddTo(x.Grad, n.Grad)
		}
	}
	return n
}

// Mul multiplies two nodes element-wise (the gating operation of LSTMs).
func (g *Graph) Mul(a, b *VNode) *VNode {
	if len(a.Val) != len(b.Val) {
		//ml4db:allow nakedpanic "caller bug: elementwise Mul requires equal widths"
		panic("nn: Mul size mismatch")
	}
	val := make([]float64, len(a.Val))
	for i := range val {
		val[i] = a.Val[i] * b.Val[i]
	}
	n := g.newNode(val, nil)
	n.back = func() {
		for i := range n.Grad {
			a.Grad[i] += n.Grad[i] * b.Val[i]
			b.Grad[i] += n.Grad[i] * a.Val[i]
		}
	}
	return n
}

func (g *Graph) unary(x *VNode, f func(float64) float64, df func(x, y float64) float64) *VNode {
	val := make([]float64, len(x.Val))
	for i, v := range x.Val {
		val[i] = f(v)
	}
	n := g.newNode(val, nil)
	n.back = func() {
		for i := range n.Grad {
			x.Grad[i] += n.Grad[i] * df(x.Val[i], n.Val[i])
		}
	}
	return n
}

// TanhV applies tanh element-wise.
func (g *Graph) TanhV(x *VNode) *VNode {
	return g.unary(x, math.Tanh, func(_, y float64) float64 { return 1 - y*y })
}

// SigmoidV applies the logistic function element-wise.
func (g *Graph) SigmoidV(x *VNode) *VNode {
	return g.unary(x, mlmath.Sigmoid, func(_, y float64) float64 { return y * (1 - y) })
}

// ReLUV applies max(0, ·) element-wise.
func (g *Graph) ReLUV(x *VNode) *VNode {
	return g.unary(x,
		func(v float64) float64 {
			if v > 0 {
				return v
			}
			return 0
		},
		func(v, _ float64) float64 {
			if v > 0 {
				return 1
			}
			return 0
		})
}

// MaxPool takes the element-wise maximum over the nodes — the dynamic
// pooling of TreeCNN representations.
func (g *Graph) MaxPool(xs ...*VNode) *VNode {
	if len(xs) == 0 {
		//ml4db:allow nakedpanic "caller bug: MaxPool requires at least one operand"
		panic("nn: MaxPool of nothing")
	}
	d := len(xs[0].Val)
	val := make([]float64, d)
	argmax := make([]int, d)
	copy(val, xs[0].Val)
	for k := 1; k < len(xs); k++ {
		for i, v := range xs[k].Val {
			if v > val[i] {
				val[i] = v
				argmax[i] = k
			}
		}
	}
	n := g.newNode(val, nil)
	n.back = func() {
		for i, k := range argmax {
			xs[k].Grad[i] += n.Grad[i]
		}
	}
	return n
}

// MeanPool averages the nodes element-wise.
func (g *Graph) MeanPool(xs ...*VNode) *VNode {
	if len(xs) == 0 {
		//ml4db:allow nakedpanic "caller bug: MeanPool requires at least one operand"
		panic("nn: MeanPool of nothing")
	}
	d := len(xs[0].Val)
	val := make([]float64, d)
	inv := 1 / float64(len(xs))
	for _, x := range xs {
		mlmath.AXPY(val, inv, x.Val)
	}
	n := g.newNode(val, nil)
	n.back = func() {
		for _, x := range xs {
			mlmath.AXPY(x.Grad, inv, n.Grad)
		}
	}
	return n
}

// Attention computes single-head scaled dot-product attention with an
// additive score bias: out_i = Σ_j softmax_j((q_i·k_j)/√d + bias[i][j]) v_j.
// The bias matrix is constant (QueryFormer's tree-structural bias, §3.1).
// All of qs, ks, vs must have the same length; bias may be nil.
func (g *Graph) Attention(qs, ks, vs []*VNode, bias [][]float64) []*VNode {
	n := len(qs)
	if len(ks) != n || len(vs) != n || n == 0 {
		//ml4db:allow nakedpanic "caller bug: attention inputs fixed by construction"
		panic("nn: Attention input size mismatch")
	}
	d := float64(len(ks[0].Val))
	scale := 1 / math.Sqrt(d)
	attn := make([][]float64, n)
	outs := make([]*VNode, n)
	for i := 0; i < n; i++ {
		scores := make([]float64, n)
		for j := 0; j < n; j++ {
			scores[j] = mlmath.Dot(qs[i].Val, ks[j].Val) * scale
			if bias != nil {
				scores[j] += bias[i][j]
			}
		}
		a := mlmath.Softmax(scores)
		attn[i] = a
		val := make([]float64, len(vs[0].Val))
		for j := 0; j < n; j++ {
			mlmath.AXPY(val, a[j], vs[j].Val)
		}
		i := i
		node := g.newNode(val, nil)
		node.back = func() {
			aRow := attn[i]
			// dV and da.
			da := make([]float64, n)
			for j := 0; j < n; j++ {
				mlmath.AXPY(vs[j].Grad, aRow[j], node.Grad)
				da[j] = mlmath.Dot(node.Grad, vs[j].Val)
			}
			// Softmax backward: ds_j = a_j (da_j − Σ_k a_k da_k).
			dot := 0.0
			for j := 0; j < n; j++ {
				dot += aRow[j] * da[j]
			}
			for j := 0; j < n; j++ {
				ds := aRow[j] * (da[j] - dot) * scale
				if ds == 0 {
					continue
				}
				mlmath.AXPY(qs[i].Grad, ds, ks[j].Val)
				mlmath.AXPY(ks[j].Grad, ds, qs[i].Val)
			}
		}
		outs[i] = node
	}
	return outs
}
