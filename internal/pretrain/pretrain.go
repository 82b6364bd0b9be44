package pretrain

import (
	"fmt"
	"math"

	"ml4db/internal/mlmath"
	"ml4db/internal/nn"
	"ml4db/internal/planrep"
	"ml4db/internal/sqlkit/datagen"
	"ml4db/internal/sqlkit/exec"
	"ml4db/internal/sqlkit/optimizer"
	"ml4db/internal/tree"
	"ml4db/internal/workload"
)

// Sample is one labeled plan from some database.
type Sample struct {
	Tree    *tree.EncTree
	LogWork float64 // cost-task label
	LogRows float64 // cardinality-task label
}

// BuildSamples generates a labeled plan corpus over one schema: queries
// planned under every hint set, executed for work and output cardinality.
func BuildSamples(sch *datagen.StarSchema, rng *mlmath.RNG, numQueries int) ([]Sample, error) {
	gen := workload.NewStarGen(sch, rng)
	opt := optimizer.New(sch.Cat)
	ex := exec.New(sch.Cat)
	pe := planrep.NewPlanEncoder(sch.Cat, planrep.TransferFeatures())
	var out []Sample
	for i := 0; i < numQueries; i++ {
		q := gen.Query()
		seen := map[string]bool{}
		for _, h := range optimizer.StandardHintSets() {
			p, err := opt.Plan(q, h)
			if err != nil {
				return nil, fmt.Errorf("pretrain: planning: %w", err)
			}
			if key := p.String(); seen[key] {
				continue
			} else {
				seen[key] = true
			}
			res, err := ex.Execute(p, exec.Options{Output: exec.CountOnly})
			if err != nil {
				return nil, fmt.Errorf("pretrain: executing: %w", err)
			}
			out = append(out, Sample{
				Tree:    pe.Encode(p),
				LogWork: logp1(float64(res.Work)),
				LogRows: logp1(float64(len(res.Rows))),
			})
		}
	}
	return out, nil
}

func logp1(x float64) float64 {
	if x < 0 {
		x = 0
	}
	return mlmath.Clamp(math.Log(x+1), 0, 64)
}

// Model is the shared-encoder multi-task model.
type Model struct {
	Enc      tree.Encoder
	CostHead *nn.MLP
	CardHead *nn.MLP
	rng      *mlmath.RNG
}

// NewModel builds an untrained multi-task model; featDim must match the
// transfer-feature encoder width.
func NewModel(featDim, hidden int, rng *mlmath.RNG) *Model {
	enc := tree.NewTreeCNNEncoder(featDim, hidden, rng)
	return &Model{
		Enc:      enc,
		CostHead: nn.NewMLP([]int{enc.OutDim(), 32, 1}, nn.LeakyReLU{}, nn.Identity{}, rng),
		CardHead: nn.NewMLP([]int{enc.OutDim(), 32, 1}, nn.LeakyReLU{}, nn.Identity{}, rng),
		rng:      rng,
	}
}

// Params implements nn.Module over all components.
func (m *Model) Params() []*nn.Param {
	ps := append([]*nn.Param{}, m.Enc.Params()...)
	ps = append(ps, m.CostHead.Params()...)
	return append(ps, m.CardHead.Params()...)
}

// headParams lets fine-tuning freeze the encoder.
type headParams struct{ m *Model }

func (h headParams) Params() []*nn.Param {
	return append(append([]*nn.Param{}, h.m.CostHead.Params()...), h.m.CardHead.Params()...)
}

// trainStep runs one multi-task forward/backward on a sample and returns the
// summed loss.
func (m *Model) trainStep(s Sample) float64 {
	g := nn.NewGraph()
	rep := m.Enc.EncodeG(g, s.Tree)
	costTape, costPred := m.CostHead.ForwardTape(rep.Val)
	cardTape, cardPred := m.CardHead.ForwardTape(rep.Val)
	gradC := make([]float64, 1)
	gradK := make([]float64, 1)
	loss := nn.MSELoss(costPred, []float64{s.LogWork}, gradC)
	loss += nn.MSELoss(cardPred, []float64{s.LogRows}, gradK)
	dRep := costTape.Backward(gradC)
	mlmath.AddTo(dRep, cardTape.Backward(gradK))
	g.Backward(rep, dRep)
	return loss
}

// Train fits the model on the corpus. headOnly freezes the encoder (the
// few-shot fine-tuning regime).
func (m *Model) Train(samples []Sample, epochs int, lr float64, headOnly bool) float64 {
	var target nn.Module = m
	if headOnly {
		target = headParams{m}
	}
	opt := nn.NewAdam(lr)
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	last := 0.0
	for e := 0; e < epochs; e++ {
		m.rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		total := 0.0
		inBatch := 0
		for _, i := range idx {
			total += m.trainStep(samples[i])
			inBatch++
			if inBatch == 16 {
				// Gradients accumulate on all params; stepping only the
				// target leaves frozen params untouched, but their grads
				// must still be cleared.
				opt.Step(target)
				if headOnly {
					clearGrads(m.Enc)
				}
				inBatch = 0
			}
		}
		if inBatch > 0 {
			opt.Step(target)
			if headOnly {
				clearGrads(m.Enc)
			}
		}
		last = total / float64(len(samples))
	}
	return last
}

func clearGrads(mod nn.Module) {
	for _, p := range mod.Params() {
		p.ZeroGrad()
	}
}

// PredictCost returns the cost-head prediction.
func (m *Model) PredictCost(t *tree.EncTree) float64 {
	g := nn.NewGraph()
	rep := m.Enc.EncodeG(g, t)
	return m.CostHead.Forward(rep.Val)[0]
}

// PredictRows returns the cardinality-head prediction.
func (m *Model) PredictRows(t *tree.EncTree) float64 {
	g := nn.NewGraph()
	rep := m.Enc.EncodeG(g, t)
	return m.CardHead.Forward(rep.Val)[0]
}

// EvalMAE computes per-task mean absolute errors over samples.
func (m *Model) EvalMAE(samples []Sample) (costMAE, cardMAE float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	for _, s := range samples {
		costMAE += abs(m.PredictCost(s.Tree) - s.LogWork)
		cardMAE += abs(m.PredictRows(s.Tree) - s.LogRows)
	}
	n := float64(len(samples))
	return costMAE / n, cardMAE / n
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
