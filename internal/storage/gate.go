package storage

import (
	"math"

	"ml4db/internal/mlmath"
	"ml4db/internal/modelsvc"
	"ml4db/internal/obs"
)

// GateOptions configures the eviction-scorer canary gate.
type GateOptions struct {
	// Window is the number of shadow observations per canary decision;
	// values below one default to 256.
	Window int
	// MaxErrRatio scales the promotion bar (see modelsvc.RolloutOptions);
	// <= 0 defaults to 1 (the candidate must strictly beat the incumbent).
	MaxErrRatio float64
	// Clock feeds the rollout's latency accounting; nil means the system
	// clock (inject a ManualClock for replay-deterministic gating).
	Clock mlmath.Clock
	// Metrics, when non-nil, receives the modelsvc.rollout.* instruments.
	Metrics *obs.Registry
}

// Gate deploys eviction scorers through a modelsvc canary rollout. The
// incumbent starts as the Recency heuristic — under which a LearnedPolicy
// behaves exactly like LRU — so a candidate model serves evictions only
// after beating the LRU-equivalent baseline over a full shadow window, and
// Demote always has the heuristic to fall back to. Gate itself implements
// modelsvc.Predictor: hand it to NewLearnedPolicy and promotions reach the
// pool atomically.
type Gate struct {
	roll *modelsvc.Rollout
}

// NewGate returns a gate serving the Recency incumbent.
func NewGate(opts GateOptions) *Gate {
	if opts.Window < 1 {
		opts.Window = 256
	}
	roll := modelsvc.NewRollout(
		modelsvc.Deployment{Version: 0, Model: Recency{}},
		modelsvc.RolloutOptions{
			Window:      opts.Window,
			MaxErrRatio: opts.MaxErrRatio,
			// Predictions are log1p reuse distances (often < 1), where
			// QError's clamp-at-1 would flatten every comparison; absolute
			// error keeps the gate discriminating.
			ErrFn:    func(pred, truth float64) float64 { return math.Abs(pred - truth) },
			Clock:    opts.Clock,
			Fallback: Recency{},
			Metrics:  opts.Metrics,
		},
	)
	return &Gate{roll: roll}
}

// Predict implements modelsvc.Predictor by serving the current incumbent.
func (g *Gate) Predict(x []float64) float64 {
	v, _ := g.roll.Predict(x)
	return v
}

// Version returns the registry version of the scorer currently serving
// evictions (0 for the Recency heuristic).
func (g *Gate) Version() int { return g.roll.Current().Version }

// State returns the rollout phase.
func (g *Gate) State() modelsvc.State { return g.roll.State() }

// Stats returns lifetime promotion/rejection/demotion counts.
func (g *Gate) Stats() (promotions, rejections, demotions int) { return g.roll.Stats() }

// SetCandidate deploys scorer (registry version v) as the shadow
// candidate.
func (g *Gate) SetCandidate(scorer modelsvc.Predictor, version int) {
	g.roll.SetCandidate(modelsvc.Deployment{Version: version, Model: scorer})
}

// ObserveSamples shadow-scores the candidate against the incumbent over a
// replay window of labeled samples, letting the canary gate decide when
// windows fill. It returns the promotions and rejections decided during
// this replay.
func (g *Gate) ObserveSamples(samples []Sample) (promotions, rejections int) {
	for _, s := range samples {
		switch g.roll.Observe(s.X, s.Y) {
		case modelsvc.OutcomePromoted:
			promotions++
		case modelsvc.OutcomeRejected:
			rejections++
		case modelsvc.OutcomeNone:
		}
	}
	return promotions, rejections
}

// Demote reverts to the previous incumbent or the Recency fallback,
// dropping any shadowing candidate. It always succeeds (the fallback is
// always configured).
func (g *Gate) Demote() bool { return g.roll.Demote() }
