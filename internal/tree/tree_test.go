package tree

import (
	"math"
	"testing"

	"ml4db/internal/mlmath"
	"ml4db/internal/nn"
)

const featDim = 4

// randTree builds a random binary tree with n leaves and random features.
func randTree(rng *mlmath.RNG, leaves int) *EncTree {
	feat := func() []float64 {
		f := make([]float64, featDim)
		for i := range f {
			f[i] = rng.NormFloat64() * 0.5
		}
		return f
	}
	nodes := make([]*EncTree, leaves)
	for i := range nodes {
		nodes[i] = &EncTree{Feat: feat()}
	}
	for len(nodes) > 1 {
		i := rng.Intn(len(nodes) - 1)
		parent := &EncTree{Feat: feat(), Left: nodes[i], Right: nodes[i+1]}
		nodes = append(nodes[:i], append([]*EncTree{parent}, nodes[i+2:]...)...)
	}
	return nodes[0]
}

func allEncoders(rng *mlmath.RNG) []Encoder {
	return []Encoder{
		NewFlatEncoder(featDim, 16),
		NewLSTMEncoder(featDim, 8, rng),
		NewTreeRNNEncoder(featDim, 8, rng),
		NewTreeLSTMEncoder(featDim, 8, rng),
		NewTreeCNNEncoder(featDim, 8, rng),
		NewTransformerEncoder(featDim, 8, rng),
	}
}

func TestEncTreeShape(t *testing.T) {
	rng := mlmath.NewRNG(1)
	tr := randTree(rng, 4)
	if got := tr.NumNodes(); got != 7 {
		t.Errorf("NumNodes = %d, want 7 (4 leaves)", got)
	}
	if got := len(tr.Flatten()); got != 7 {
		t.Errorf("Flatten len = %d", got)
	}
	if tr.Depth() < 3 {
		t.Errorf("Depth = %d, want >= 3", tr.Depth())
	}
}

func TestEncodersProduceCorrectDims(t *testing.T) {
	rng := mlmath.NewRNG(2)
	tr := randTree(rng, 3)
	for _, e := range allEncoders(rng) {
		rep := e.EncodeG(nn.NewGraph(), tr).Val
		if len(rep) != e.OutDim() {
			t.Errorf("%s: rep dim %d, want %d", e.Name(), len(rep), e.OutDim())
		}
		for _, v := range rep {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: non-finite representation value", e.Name())
				break
			}
		}
	}
}

func TestEncodersAreDeterministic(t *testing.T) {
	tr := randTree(mlmath.NewRNG(3), 5)
	for _, mk := range []func(*mlmath.RNG) Encoder{
		func(r *mlmath.RNG) Encoder { return NewLSTMEncoder(featDim, 8, r) },
		func(r *mlmath.RNG) Encoder { return NewTreeLSTMEncoder(featDim, 8, r) },
		func(r *mlmath.RNG) Encoder { return NewTreeCNNEncoder(featDim, 8, r) },
		func(r *mlmath.RNG) Encoder { return NewTransformerEncoder(featDim, 8, r) },
	} {
		a := mk(mlmath.NewRNG(7)).EncodeG(nn.NewGraph(), tr).Val
		b := mk(mlmath.NewRNG(7)).EncodeG(nn.NewGraph(), tr).Val
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("encoder not deterministic under fixed seed")
				break
			}
		}
	}
}

func TestEncodersDistinguishStructure(t *testing.T) {
	// Same multiset of features, different tree shapes → structural encoders
	// must produce different representations.
	rng := mlmath.NewRNG(4)
	f1, f2, f3 := []float64{1, 0, 0, 0}, []float64{0, 1, 0, 0}, []float64{0, 0, 1, 0}
	leftDeep := &EncTree{Feat: f3, Left: &EncTree{Feat: f2, Left: &EncTree{Feat: f1}, Right: &EncTree{Feat: f1}}, Right: &EncTree{Feat: f1}}
	rightDeep := &EncTree{Feat: f3, Left: &EncTree{Feat: f1}, Right: &EncTree{Feat: f2, Left: &EncTree{Feat: f1}, Right: &EncTree{Feat: f1}}}
	for _, e := range []Encoder{
		NewTreeRNNEncoder(featDim, 8, rng),
		NewTreeLSTMEncoder(featDim, 8, rng),
		NewTreeCNNEncoder(featDim, 8, rng),
	} {
		a, b := e.EncodeG(nn.NewGraph(), leftDeep).Val, e.EncodeG(nn.NewGraph(), rightDeep).Val
		same := true
		for i := range a {
			if math.Abs(a[i]-b[i]) > 1e-9 {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s: identical representation for different structures", e.Name())
		}
	}
}

// TestEncoderGradients numerically verifies end-to-end gradients through
// every parametric encoder.
func TestEncoderGradients(t *testing.T) {
	rng := mlmath.NewRNG(5)
	tr := randTree(rng, 3)
	for _, e := range allEncoders(rng) {
		if len(e.Params()) == 0 {
			continue
		}
		e := e
		t.Run(e.Name(), func(t *testing.T) {
			forward := func() float64 {
				g := nn.NewGraph()
				rep := e.EncodeG(g, tr)
				s := 0.0
				for _, v := range rep.Val {
					s += v
				}
				return s
			}
			// Analytic.
			g := nn.NewGraph()
			rep := e.EncodeG(g, tr)
			seed := make([]float64, len(rep.Val))
			for i := range seed {
				seed[i] = 1
			}
			g.Backward(rep, seed)
			const eps = 1e-5
			for pi, p := range e.Params() {
				stride := 1 + len(p.Val)/5 // sample a few entries per param
				for i := 0; i < len(p.Val); i += stride {
					analytic := p.Grad[i]
					orig := p.Val[i]
					p.Val[i] = orig + eps
					lp := forward()
					p.Val[i] = orig - eps
					lm := forward()
					p.Val[i] = orig
					numeric := (lp - lm) / (2 * eps)
					if math.Abs(numeric-analytic) > 1e-3*math.Max(1, math.Abs(numeric)) {
						t.Errorf("param %d[%d]: analytic %v vs numeric %v", pi, i, analytic, numeric)
					}
				}
				p.ZeroGrad()
			}
		})
	}
}

// TestRegressorLearnsNodeCount: every encoder must be able to learn to count
// tree nodes (a pure structure task) to reasonable accuracy.
func TestRegressorLearnsNodeCount(t *testing.T) {
	rng := mlmath.NewRNG(6)
	var trees []*EncTree
	var ys []float64
	for i := 0; i < 60; i++ {
		tr := randTree(rng, 1+rng.Intn(5))
		trees = append(trees, tr)
		ys = append(ys, float64(tr.NumNodes()))
	}
	for _, e := range []Encoder{
		NewFlatEncoder(featDim, 16),
		NewTreeRNNEncoder(featDim, 8, rng),
		NewTreeCNNEncoder(featDim, 8, rng),
	} {
		r := NewRegressor(e, []int{16}, rng)
		loss := r.Fit(trees, ys, FitOptions{Epochs: 120, BatchSize: 8, Optimizer: nn.NewAdam(0.01), RNG: mlmath.NewRNG(1)})
		if loss > 1.5 {
			t.Errorf("%s: node-count loss %v, want < 1.5", e.Name(), loss)
		}
	}
}

func TestRegressorPairwiseRanking(t *testing.T) {
	rng := mlmath.NewRNG(7)
	// Better trees have feature[0] = 0; worse have feature[0] = 1.
	mk := func(flag float64) *EncTree {
		f := make([]float64, featDim)
		f[0] = flag
		f[1] = rng.NormFloat64() * 0.1
		return &EncTree{Feat: f, Left: &EncTree{Feat: mlmath.Clone(f)}, Right: &EncTree{Feat: mlmath.Clone(f)}}
	}
	r := NewRegressor(NewTreeRNNEncoder(featDim, 8, rng), []int{8}, rng)
	opt := nn.NewAdam(0.01)
	for i := 0; i < 300; i++ {
		r.TrainPair(mk(0), mk(1))
		opt.Step(r)
	}
	correct := 0
	for i := 0; i < 50; i++ {
		if r.Predict(mk(0)) < r.Predict(mk(1)) {
			correct++
		}
	}
	if correct < 45 {
		t.Errorf("pairwise ranking accuracy %d/50", correct)
	}
}

func TestFlatEncoderTruncatesAndPads(t *testing.T) {
	rng := mlmath.NewRNG(8)
	e := NewFlatEncoder(featDim, 2) // room for 2 nodes only
	tr := randTree(rng, 4)          // 7 nodes
	rep := e.EncodeG(nn.NewGraph(), tr).Val
	if len(rep) != 2*featDim {
		t.Fatalf("rep len = %d", len(rep))
	}
	small := &EncTree{Feat: []float64{1, 2, 3, 4}}
	rep2 := e.EncodeG(nn.NewGraph(), small).Val
	for i := featDim; i < 2*featDim; i++ {
		if rep2[i] != 0 {
			t.Error("padding not zero")
		}
	}
}

func TestTreeDistancesSymmetricAndZeroDiagonal(t *testing.T) {
	rng := mlmath.NewRNG(9)
	tr := randTree(rng, 5)
	nodes := tr.Flatten()
	d := treeDistances(nodes, tr)
	for i := range nodes {
		if d[i][i] != 0 {
			t.Errorf("d[%d][%d] = %v", i, i, d[i][i])
		}
		for j := range nodes {
			if d[i][j] != d[j][i] {
				t.Errorf("asymmetric distance (%d,%d): %v vs %v", i, j, d[i][j], d[j][i])
			}
		}
	}
	// Root (index 0 in pre-order) to any node = that node's depth ≤ tree depth.
	for j := range nodes {
		if d[0][j] > float64(tr.Depth()-1) {
			t.Errorf("root distance %v exceeds depth", d[0][j])
		}
	}
}

func TestParamCounts(t *testing.T) {
	rng := mlmath.NewRNG(10)
	flat := NewFlatEncoder(featDim, 16)
	if nn.ParamCount(flat) != 0 {
		t.Error("flat encoder should have no parameters")
	}
	lstm := NewTreeLSTMEncoder(featDim, 8, rng)
	// 4 input projections (8×4), 8 recurrences (8×8), 4 biases (8).
	want := 4*8*featDim + 8*8*8 + 4*8
	if got := nn.ParamCount(lstm); got != want {
		t.Errorf("treelstm params = %d, want %d", got, want)
	}
}
