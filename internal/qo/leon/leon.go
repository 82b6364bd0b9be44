package leon

import (
	"math"

	"ml4db/internal/mlmath"
	"ml4db/internal/nn"
	"ml4db/internal/planrep"
	"ml4db/internal/qo"
	"ml4db/internal/sqlkit/optimizer"
	"ml4db/internal/sqlkit/plan"
	"ml4db/internal/tree"
)

// Leon is the mixed-estimation planner.
type Leon struct {
	Env *qo.Env
	Enc *planrep.PlanEncoder
	// Ranker scores plans; trained pairwise so only its ordering matters.
	Ranker *tree.Regressor
	// Alpha mixes expert and learned scores: score = α·normExpert +
	// (1−α)·normLearned.
	Alpha float64
	// Calibrated tracks pairwise validation accuracy; below FallbackAcc the
	// planner ignores the model (expert fallback).
	Calibrated  float64
	FallbackAcc float64
}

// New constructs LEON over the environment.
func New(env *qo.Env, hidden int, rng *mlmath.RNG) *Leon {
	if hidden <= 0 {
		hidden = 16
	}
	pe := planrep.NewPlanEncoder(env.Cat, planrep.FullFeatures())
	enc := tree.NewTreeCNNEncoder(pe.FeatDim(), hidden, rng)
	return &Leon{
		Env:         env,
		Enc:         pe,
		Ranker:      tree.NewRegressor(enc, []int{32}, rng),
		Alpha:       0.5,
		FallbackAcc: 0.55,
	}
}

// Train executes the candidate plans of each training query and fits the
// ranker pairwise: for every pair, the plan with lower measured work must
// score lower. A held-out fraction calibrates the fallback.
func (l *Leon) Train(queries []*plan.Query, pairEpochs int) error {
	type labeled struct {
		tree *tree.EncTree
		work int64
	}
	var groups [][]labeled
	for _, q := range queries {
		cands, err := l.Env.HintPlans(q, true)
		if err != nil {
			return err
		}
		var g []labeled
		for _, p := range cands {
			work, _, err := l.Env.Run(p, 0)
			if err != nil {
				return err
			}
			g = append(g, labeled{l.Enc.Encode(p), work})
		}
		groups = append(groups, g)
	}
	cut := len(groups) * 4 / 5
	if cut < 1 {
		cut = len(groups)
	}
	opt := nn.NewAdam(2e-3)
	for e := 0; e < pairEpochs; e++ {
		for _, g := range groups[:cut] {
			for i := 0; i < len(g); i++ {
				for j := i + 1; j < len(g); j++ {
					if g[i].work == g[j].work {
						continue
					}
					better, worse := g[i], g[j]
					if worse.work < better.work {
						better, worse = worse, better
					}
					l.Ranker.TrainPair(better.tree, worse.tree)
					opt.Step(l.Ranker)
				}
			}
		}
	}
	// Calibrate on the held-out groups.
	correct, total := 0, 0
	for _, g := range groups[cut:] {
		for i := 0; i < len(g); i++ {
			for j := i + 1; j < len(g); j++ {
				if g[i].work == g[j].work {
					continue
				}
				total++
				si := l.Ranker.Predict(g[i].tree)
				sj := l.Ranker.Predict(g[j].tree)
				if (si < sj) == (g[i].work < g[j].work) {
					correct++
				}
			}
		}
	}
	if total > 0 {
		l.Calibrated = float64(correct) / float64(total)
	} else {
		l.Calibrated = 1
	}
	l.Env.Metrics.Gauge("qo.leon.calibrated").Set(l.Calibrated)
	return nil
}

// UsesFallback reports whether LEON currently distrusts its model.
func (l *Leon) UsesFallback() bool { return l.Calibrated < l.FallbackAcc }

// Plan picks the candidate with the best mixed score — or the expert's
// default plan when the model is in fallback.
func (l *Leon) Plan(q *plan.Query) (*plan.Node, error) {
	if l.UsesFallback() {
		l.Env.Metrics.Counter("qo.leon.fallbacks").Inc()
		return l.Env.Opt.Plan(q, optimizer.NoHint())
	}
	l.Env.Metrics.Counter("qo.leon.model_plans").Inc()
	cands, err := l.Env.HintPlans(q, true)
	if err != nil {
		return nil, err
	}
	scores := l.scoreCandidates(cands, ScoreMixed)
	best, bestScore := 0, math.Inf(1)
	for i := range cands {
		if scores[i] < bestScore {
			best, bestScore = i, scores[i]
		}
	}
	return cands[best], nil
}

// ScoreMode selects which estimator ranks plans in RankAccuracy.
type ScoreMode int

// Score modes for ranking evaluation (the E11 comparison axes).
const (
	// ScoreExpert ranks by the formula cost model alone.
	ScoreExpert ScoreMode = iota
	// ScoreLearned ranks by the pairwise-trained model alone.
	ScoreLearned
	// ScoreMixed ranks by LEON's normalized expert+learned mixture.
	ScoreMixed
)

// scoreCandidates returns per-candidate scores under the mode, normalized
// within the candidate set where mixing requires it.
func (l *Leon) scoreCandidates(cands []*plan.Node, mode ScoreMode) []float64 {
	expert := make([]float64, len(cands))
	learned := make([]float64, len(cands))
	for i, p := range cands {
		expert[i] = math.Log(p.EstCost + 1)
		learned[i] = l.Ranker.Predict(l.Enc.Encode(p))
	}
	switch mode {
	case ScoreExpert:
		return expert
	case ScoreLearned:
		return learned
	default:
		norm01(expert)
		norm01(learned)
		out := make([]float64, len(cands))
		for i := range out {
			out[i] = l.Alpha*expert[i] + (1-l.Alpha)*learned[i]
		}
		return out
	}
}

// RankAccuracy evaluates pairwise ordering accuracy of a score mode against
// measured work on each query's candidate set — the E11 metric.
func (l *Leon) RankAccuracy(queries []*plan.Query, mode ScoreMode) (float64, error) {
	correct, total := 0, 0
	for _, q := range queries {
		cands, err := l.Env.HintPlans(q, true)
		if err != nil {
			return 0, err
		}
		works := make([]int64, len(cands))
		for i, p := range cands {
			w, _, err := l.Env.Run(p, 0)
			if err != nil {
				return 0, err
			}
			works[i] = w
		}
		scores := l.scoreCandidates(cands, mode)
		for i := 0; i < len(cands); i++ {
			for j := i + 1; j < len(cands); j++ {
				if works[i] == works[j] {
					continue
				}
				total++
				if (scores[i] < scores[j]) == (works[i] < works[j]) {
					correct++
				}
			}
		}
	}
	if total == 0 {
		return 1, nil
	}
	return float64(correct) / float64(total), nil
}

func norm01(v []float64) {
	lo, hi := v[0], v[0]
	for _, x := range v {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if hi-lo < 1e-12 {
		for i := range v {
			v[i] = 0
		}
		return
	}
	for i := range v {
		v[i] = (v[i] - lo) / (hi - lo)
	}
}
