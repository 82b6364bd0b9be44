package modelsvc

import (
	"sync"

	"ml4db/internal/mlmath"
	"ml4db/internal/obs"
)

// Predictor is the single-input inference interface served by this
// subsystem: a pure function of its input and of the model's immutable
// parameters.
type Predictor interface {
	Predict(x []float64) float64
}

// Deployment pairs a model with the registry version it was loaded from.
// Version 0 denotes an unversioned (e.g. expert fallback) model.
type Deployment struct {
	Version int
	Model   Predictor
}

// State is the rollout's deployment phase.
type State int

const (
	// Stable: the incumbent serves alone; no candidate is deployed.
	Stable State = iota
	// Shadowing: a candidate runs in shadow mode on observed requests,
	// accumulating the canary window that decides promotion.
	Shadowing
)

// String renders the state for logs and manifests.
func (s State) String() string {
	if s == Shadowing {
		return "shadowing"
	}
	return "stable"
}

// Outcome is what one Observe call decided.
type Outcome int

const (
	// OutcomeNone: the canary window is still filling (or no candidate is
	// deployed).
	OutcomeNone Outcome = iota
	// OutcomePromoted: the candidate won its window and was atomically
	// hot-swapped in as the new incumbent.
	OutcomePromoted
	// OutcomeRejected: the candidate lost its window and was dropped;
	// serving falls back to the (never-disturbed) incumbent.
	OutcomeRejected
)

// RolloutOptions configures the canary gate.
type RolloutOptions struct {
	// Window is the number of shadow observations compared before the gate
	// decides. Values below one default to 32.
	Window int
	// ErrFn scores one prediction against the observed truth (lower is
	// better). Nil defaults to mlmath.QError.
	ErrFn func(pred, truth float64) float64
	// Clock times the candidate's shadow predictions for the
	// modelsvc.rollout.shadow_latency histogram; nil means the system clock.
	// Under a ManualClock the whole rollout — predictions, gate decisions,
	// manifest-ready counters — replays deterministically.
	Clock mlmath.Clock
	// Fallback, when non-nil, is the expert model Demote falls back to when
	// there is no previous incumbent to restore.
	Fallback Predictor
	// Metrics, when non-nil, receives modelsvc.rollout.* instruments.
	Metrics *obs.Registry
	// Events, when non-nil, receives every deployment-lifecycle event
	// (candidate set, promotion, rejection, demotion) in commit order. The
	// callback runs outside the rollout's lock, after the transition it
	// describes has committed — it may call back into the rollout.
	Events func(RolloutEvent)
}

// RolloutEventKind identifies a deployment-lifecycle transition.
type RolloutEventKind int

// The lifecycle transitions a rollout reports through Events.
const (
	// RolloutCandidate: a candidate entered the shadow window.
	RolloutCandidate RolloutEventKind = iota
	// RolloutPromoted: the candidate won its window and now serves.
	RolloutPromoted
	// RolloutRejected: the candidate lost its window (or was replaced or
	// dropped before deciding).
	RolloutRejected
	// RolloutDemoted: a promotion was reverted to the previous incumbent or
	// the expert fallback.
	RolloutDemoted
)

// RolloutEvent is one reported transition. Version is the deployment the
// event is about (the candidate, or the restored incumbent for demotions);
// Incumbent is the version serving reads after the transition.
type RolloutEvent struct {
	Kind      RolloutEventKind
	Version   int
	Incumbent int
}

// latBuckets cover shadow-prediction latencies (seconds) from sub-µs to
// seconds.
var latBuckets = obs.ExpBuckets(1e-7, 4, 14)

// errBuckets cover shadow error scores (q-error-like, 1 = perfect).
var errBuckets = obs.ExpBuckets(1, 2, 17)

// Rollout guards the deployment of a candidate model against the incumbent.
// Reads (Predict, Current) snapshot the incumbent under a
// read-lock; Observe snapshots the deployment pair, runs the canary
// comparison unlocked, then commits — and, when the window fills, promotes
// or rejects the candidate — under the write-lock with an epoch guard. A
// promotion is an atomic hot-swap: every read sees exactly one coherent
// deployment, before or after, never a torn mixture.
type Rollout struct {
	opts RolloutOptions

	mu          sync.RWMutex
	incumbent   Deployment
	previous    Deployment // restored by Demote
	hasPrevious bool
	candidate   Deployment
	state       State
	// epoch counts deployment-set changes (candidate set, gate decision,
	// demotion). Observe snapshots it before predicting outside the lock and
	// drops the observation if the set changed underneath — the errors it
	// measured belong to a deployment pair that no longer exists.
	epoch      uint64
	incErr     []float64
	candErr    []float64
	promotions int
	rejections int
	demotions  int
}

// NewRollout starts a rollout serving the incumbent in the Stable state.
func NewRollout(incumbent Deployment, opts RolloutOptions) *Rollout {
	if opts.Window < 1 {
		opts.Window = 32
	}
	if opts.ErrFn == nil {
		opts.ErrFn = mlmath.QError
	}
	r := &Rollout{opts: opts, incumbent: incumbent}
	opts.Metrics.Gauge("modelsvc.rollout.version").Set(float64(incumbent.Version))
	return r
}

// Current returns the deployment serving reads right now.
func (r *Rollout) Current() Deployment {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.incumbent
}

// State returns the rollout phase.
func (r *Rollout) State() State {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.state
}

// Stats returns the lifetime promotion/rejection/demotion counts.
func (r *Rollout) Stats() (promotions, rejections, demotions int) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.promotions, r.rejections, r.demotions
}

// SetCandidate deploys d as the shadow candidate, resetting the canary
// window. A candidate already shadowing is replaced (counted as a
// rejection: it never won its window).
func (r *Rollout) SetCandidate(d Deployment) {
	var events []RolloutEvent
	r.mu.Lock()
	if r.state == Shadowing {
		r.rejections++
		r.opts.Metrics.Counter("modelsvc.rollout.rejections").Inc()
		events = append(events, RolloutEvent{Kind: RolloutRejected, Version: r.candidate.Version, Incumbent: r.incumbent.Version})
	}
	r.candidate = d
	r.state = Shadowing
	r.epoch++
	r.resetWindowLocked()
	r.opts.Metrics.Counter("modelsvc.rollout.candidates").Inc()
	events = append(events, RolloutEvent{Kind: RolloutCandidate, Version: d.Version, Incumbent: r.incumbent.Version})
	r.mu.Unlock()
	r.fire(events)
}

// fire delivers events to the configured sink, outside the lock.
func (r *Rollout) fire(events []RolloutEvent) {
	if r.opts.Events == nil {
		return
	}
	for _, ev := range events {
		r.opts.Events(ev)
	}
}

func (r *Rollout) resetWindowLocked() {
	r.incErr = r.incErr[:0]
	r.candErr = r.candErr[:0]
}

// Predict serves one request from the incumbent, so a *Rollout is itself a
// Predictor whose model is hot-swapped by promotions and demotions. The
// candidate never serves reads until promoted; Current names the version
// serving.
func (r *Rollout) Predict(x []float64) float64 {
	return r.Current().Model.Predict(x)
}

// Observe feeds back one request with known ground truth. In the Shadowing
// state both models predict x (the candidate timed via the injected clock),
// the errors join the canary window, and once Window observations have
// accumulated the gate decides: the candidate is promoted — an atomic
// hot-swap, the previous incumbent retained for Demote — only if its
// windowed median error is strictly below the incumbent's; otherwise it is
// rejected and the incumbent keeps serving. In
// the Stable state Observe records the incumbent's error and returns
// OutcomeNone. The second result is always the incumbent's error on x — the
// serving model's, before any promotion this call decides.
//
// Model inference and ErrFn are caller-supplied code, so they run outside
// r.mu (lockcheck enforces this): Observe snapshots the deployment pair and
// epoch under a read-lock, predicts unlocked, then re-acquires the write
// lock to commit. If the deployment set changed in between, the measured
// errors describe a pair that no longer exists and the observation is
// dropped (OutcomeNone) — under a single observer thread this path is
// unreachable and behavior, clock-read sequence included, is unchanged.
func (r *Rollout) Observe(x []float64, truth float64) (Outcome, float64) {
	m := r.opts.Metrics

	r.mu.RLock()
	epoch := r.epoch
	inc := r.incumbent
	cand := r.candidate
	shadowing := r.state == Shadowing
	r.mu.RUnlock()

	incErr := r.opts.ErrFn(inc.Model.Predict(x), truth)
	m.Histogram("modelsvc.rollout.incumbent_err", errBuckets).Observe(incErr)
	if !shadowing {
		return OutcomeNone, incErr
	}

	clock := mlmath.ClockOrSystem(r.opts.Clock)
	t0 := clock.Now()
	candPred := cand.Model.Predict(x)
	candLat := clock.Now().Sub(t0).Seconds()
	candErr := r.opts.ErrFn(candPred, truth)
	m.Histogram("modelsvc.rollout.candidate_err", errBuckets).Observe(candErr)
	m.Histogram("modelsvc.rollout.shadow_latency", latBuckets).Observe(candLat)

	r.mu.Lock()
	if r.epoch != epoch {
		r.mu.Unlock()
		return OutcomeNone, incErr
	}
	r.incErr = append(r.incErr, incErr)
	r.candErr = append(r.candErr, candErr)
	switch {
	case candErr < incErr:
		m.Counter("modelsvc.rollout.shadow_wins").Inc()
	case candErr > incErr:
		m.Counter("modelsvc.rollout.shadow_losses").Inc()
	}

	if len(r.candErr) < r.opts.Window {
		r.mu.Unlock()
		return OutcomeNone, incErr
	}
	outcome, event := r.decideLocked()
	r.mu.Unlock()
	r.fire([]RolloutEvent{event})
	return outcome, incErr
}

// decideLocked applies the canary gate at the end of a full window,
// returning the outcome and the event for the caller to fire once the lock
// is released.
func (r *Rollout) decideLocked() (Outcome, RolloutEvent) {
	m := r.opts.Metrics
	r.epoch++ // either branch retires the current deployment pair
	incMed := mlmath.Median(r.incErr)
	candMed := mlmath.Median(r.candErr)
	promote := candMed < incMed
	m.Gauge("modelsvc.rollout.last_window_incumbent_err").Set(incMed)
	m.Gauge("modelsvc.rollout.last_window_candidate_err").Set(candMed)
	if !promote {
		rejected := r.candidate.Version
		r.candidate = Deployment{}
		r.state = Stable
		r.resetWindowLocked()
		r.rejections++
		m.Counter("modelsvc.rollout.rejections").Inc()
		return OutcomeRejected, RolloutEvent{Kind: RolloutRejected, Version: rejected, Incumbent: r.incumbent.Version}
	}
	r.previous = r.incumbent
	r.hasPrevious = true
	r.incumbent = r.candidate
	r.candidate = Deployment{}
	r.state = Stable
	r.resetWindowLocked()
	r.promotions++
	m.Counter("modelsvc.rollout.promotions").Inc()
	m.Gauge("modelsvc.rollout.version").Set(float64(r.incumbent.Version))
	return OutcomePromoted, RolloutEvent{Kind: RolloutPromoted, Version: r.incumbent.Version, Incumbent: r.incumbent.Version}
}

// Demote reverts the last promotion: the previous incumbent is restored, or
// — when no previous incumbent exists — the configured expert Fallback takes
// over. Any shadowing candidate is dropped (counted as a rejection). Returns
// false if there is nothing to fall back to.
func (r *Rollout) Demote() bool {
	m := r.opts.Metrics
	var events []RolloutEvent
	r.mu.Lock()
	if r.state == Shadowing {
		events = append(events, RolloutEvent{Kind: RolloutRejected, Version: r.candidate.Version, Incumbent: r.incumbent.Version})
		r.candidate = Deployment{}
		r.state = Stable
		r.epoch++
		r.resetWindowLocked()
		r.rejections++
		m.Counter("modelsvc.rollout.rejections").Inc()
	}
	switch {
	case r.hasPrevious:
		r.incumbent = r.previous
		r.previous = Deployment{}
		r.hasPrevious = false
	case r.opts.Fallback != nil:
		r.incumbent = Deployment{Version: 0, Model: r.opts.Fallback}
	default:
		r.mu.Unlock()
		r.fire(events)
		return false
	}
	r.epoch++
	r.demotions++
	m.Counter("modelsvc.rollout.demotions").Inc()
	m.Gauge("modelsvc.rollout.version").Set(float64(r.incumbent.Version))
	events = append(events, RolloutEvent{Kind: RolloutDemoted, Version: r.incumbent.Version, Incumbent: r.incumbent.Version})
	r.mu.Unlock()
	r.fire(events)
	return true
}
