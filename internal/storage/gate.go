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

// shadowLRU simulates an LRU cache of fixed capacity over page keys only —
// no I/O, no pages: key-only frames on the package's one recency list — to
// score what LRU's hit rate would have been on the exact access sequence the
// live pool served.
type shadowLRU struct {
	cap   int
	nodes map[PageKey]*frame
	lru   recency
}

func newShadowLRU(capacity int) *shadowLRU {
	if capacity < 1 {
		capacity = 1
	}
	s := &shadowLRU{cap: capacity, nodes: make(map[PageKey]*frame, capacity)}
	s.lru.init()
	return s
}

// access records one access, returning whether it would have hit. A miss
// on a full cache re-keys the coldest node in place.
func (s *shadowLRU) access(key PageKey) bool {
	fr, hit := s.nodes[key]
	if !hit {
		if len(s.nodes) < s.cap {
			fr = &frame{}
		} else {
			fr = s.lru.coldest()
			delete(s.nodes, fr.key)
		}
		fr.key = key
		s.nodes[key] = fr
	}
	s.lru.touch(fr)
	return hit
}

// Guard watches the live pool's hit rate against a shadowed LRU simulation
// of the same capacity over the same access sequence, and demotes the
// gate's scorer the moment a full window regresses — the safety half of the
// learned-eviction deployment: promotion needs a won canary window,
// demotion needs one lost replay window. Wire it as the pool's Observer.
type Guard struct {
	gate   *Gate
	shadow *shadowLRU
	window int
	margin float64

	n, liveHits, shadowHits int
	demotions               int
}

// NewGuard returns a guard demoting the gate when the live hit rate over a
// window of accesses drops more than margin below the shadowed LRU's
// (margin is an absolute rate difference; window < 1 defaults to 512).
func NewGuard(gate *Gate, capacity, window int, margin float64) *Guard {
	if window < 1 {
		window = 512
	}
	return &Guard{gate: gate, shadow: newShadowLRU(capacity), window: window, margin: margin}
}

// Observe feeds one pool access (the Pool.Observer signature), returning
// true when this access completed a window that regressed and triggered a
// demotion.
func (g *Guard) Observe(key PageKey, hit bool) bool {
	if g.shadow.access(key) {
		g.shadowHits++
	}
	if hit {
		g.liveHits++
	}
	g.n++
	if g.n < g.window {
		return false
	}
	liveRate := float64(g.liveHits) / float64(g.n)
	shadowRate := float64(g.shadowHits) / float64(g.n)
	g.n, g.liveHits, g.shadowHits = 0, 0, 0
	if liveRate < shadowRate-g.margin {
		g.gate.Demote()
		g.demotions++
		return true
	}
	return false
}

// Demotions returns how many windows have regressed.
func (g *Guard) Demotions() int { return g.demotions }
