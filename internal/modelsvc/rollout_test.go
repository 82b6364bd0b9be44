package modelsvc

import (
	"bytes"
	"testing"
	"time"

	"ml4db/internal/mlmath"
	"ml4db/internal/obs"
)

// biasPredictor predicts truth*factor for the synthetic workload below
// (inputs carry the truth in x[0]), so its q-error against the truth is
// exactly factor — a model whose quality is dialed in directly.
type biasPredictor struct{ factor float64 }

func (p biasPredictor) Predict(x []float64) float64 { return x[0] * p.factor }

// driveWindow feeds n observations whose truth is x[0], checking that each
// Observe reports the error of the incumbent serving when it was called —
// while shadowing, on the observation that decides the window, and in
// Stable alike.
func driveWindow(t *testing.T, r *Rollout, n int) Outcome {
	t.Helper()
	out := OutcomeNone
	for i := 0; i < n; i++ {
		truth := 10 + float64(i%7)
		x := []float64{truth}
		want := mlmath.QError(r.Current().Model.Predict(x), truth)
		o, incErr := r.Observe(x, truth)
		if incErr != want {
			t.Fatalf("observation %d: Observe's incumbent error = %v, want %v", i, incErr, want)
		}
		if o != OutcomeNone {
			out = o
		}
	}
	return out
}

func manualRollout(incumbent, window int, metrics *obs.Registry) (*Rollout, *mlmath.ManualClock) {
	clock := &mlmath.ManualClock{T: time.Unix(1700000000, 0)}
	r := NewRollout(Deployment{Version: incumbent, Model: biasPredictor{factor: 2}},
		RolloutOptions{Window: window, Clock: clock, Metrics: metrics})
	return r, clock
}

// TestRolloutPromotesBetterCandidate exercises the promotion path under a
// ManualClock: a candidate with lower windowed q-error is atomically
// hot-swapped in after exactly Window shadow observations.
func TestRolloutPromotesBetterCandidate(t *testing.T) {
	reg := obs.NewRegistry()
	r, _ := manualRollout(1, 8, reg)
	r.SetCandidate(Deployment{Version: 2, Model: biasPredictor{factor: 1.1}})
	if r.State() != Shadowing {
		t.Fatal("SetCandidate did not enter Shadowing")
	}
	// Reads still come from the incumbent during shadowing.
	if got := r.Predict([]float64{5}); got != 10 || r.Current().Version != 1 {
		t.Fatalf("shadowing read = %v from version %d, want incumbent 1's 10", got, r.Current().Version)
	}
	if out := driveWindow(t, r, 8); out != OutcomePromoted {
		t.Fatalf("outcome = %v, want promotion", out)
	}
	if dep := r.Current(); dep.Version != 2 {
		t.Fatalf("post-promotion version = %d, want 2", dep.Version)
	}
	if r.State() != Stable {
		t.Fatal("promotion did not return to Stable")
	}
	promos, rejects, _ := r.Stats()
	if promos != 1 || rejects != 0 {
		t.Fatalf("stats = %d promotions, %d rejections", promos, rejects)
	}
	if got := reg.Counter("modelsvc.rollout.promotions").Value(); got != 1 {
		t.Fatalf("promotions counter = %d", got)
	}
	if got := reg.Counter("modelsvc.rollout.shadow_wins").Value(); got != 8 {
		t.Fatalf("shadow_wins counter = %d, want 8", got)
	}
	if got := reg.Gauge("modelsvc.rollout.version").Value(); got != 2 {
		t.Fatalf("version gauge = %v, want 2", got)
	}
}

// TestRolloutRejectsWorseCandidate is the guarantee the issue demands: a
// candidate with worse windowed q-error is provably never promoted — the
// incumbent keeps serving, untouched.
func TestRolloutRejectsWorseCandidate(t *testing.T) {
	reg := obs.NewRegistry()
	r, _ := manualRollout(1, 8, reg)
	r.SetCandidate(Deployment{Version: 2, Model: biasPredictor{factor: 5}})
	if out := driveWindow(t, r, 8); out != OutcomeRejected {
		t.Fatalf("outcome = %v, want rejection", out)
	}
	if dep := r.Current(); dep.Version != 1 {
		t.Fatalf("post-rejection version = %d, want incumbent 1", dep.Version)
	}
	promos, rejects, _ := r.Stats()
	if promos != 0 || rejects != 1 {
		t.Fatalf("stats = %d promotions, %d rejections", promos, rejects)
	}
	if got := reg.Counter("modelsvc.rollout.shadow_losses").Value(); got != 8 {
		t.Fatalf("shadow_losses counter = %d, want 8", got)
	}
	// Back in Stable, Observe still reports the incumbent's error.
	if out := driveWindow(t, r, 4); out != OutcomeNone {
		t.Fatalf("stable outcome = %v, want none", out)
	}
}

// TestRolloutTieKeepsIncumbent: an equal candidate does not clear the
// strictly-better bar — conservative by design.
func TestRolloutTieKeepsIncumbent(t *testing.T) {
	r, _ := manualRollout(1, 4, nil)
	r.SetCandidate(Deployment{Version: 2, Model: biasPredictor{factor: 2}})
	if out := driveWindow(t, r, 4); out != OutcomeRejected {
		t.Fatalf("outcome = %v, want rejection on tie", out)
	}
	if dep := r.Current(); dep.Version != 1 {
		t.Fatalf("tie swapped the incumbent (version %d)", dep.Version)
	}
}

// hookPredictor runs hook inside Predict — outside the rollout's lock, as
// every model call is — then predicts like biasPredictor.
type hookPredictor struct {
	biasPredictor
	hook func()
}

func (p hookPredictor) Predict(x []float64) float64 {
	p.hook()
	return p.biasPredictor.Predict(x)
}

// TestRolloutEpochGuardDropsStaleObservation: a candidate replaced while
// Observe predicts unlocked leaves an observation measured against a pair
// that no longer exists. Observe drops it from the window, still reporting
// the incumbent's error, and the new candidate needs a full window of its
// own.
func TestRolloutEpochGuardDropsStaleObservation(t *testing.T) {
	r, _ := manualRollout(1, 2, nil)
	next := Deployment{Version: 3, Model: biasPredictor{factor: 1.1}}
	r.SetCandidate(Deployment{Version: 2, Model: hookPredictor{biasPredictor{factor: 1.1}, func() { r.SetCandidate(next) }}})
	out, incErr := r.Observe([]float64{10}, 10)
	if out != OutcomeNone || incErr != mlmath.QError(20, 10) {
		t.Fatalf("stale observation = (%v, %v), want (none, %v)", out, incErr, mlmath.QError(20, 10))
	}
	if out := driveWindow(t, r, 1); out != OutcomeNone {
		t.Fatalf("the dropped observation counted toward v3's window (outcome %v)", out)
	}
	if out := driveWindow(t, r, 1); out != OutcomePromoted || r.Current().Version != 3 {
		t.Fatalf("outcome = %v serving v%d, want v3 promoted after its own window", out, r.Current().Version)
	}
}

func TestRolloutDemoteRestoresPrevious(t *testing.T) {
	reg := obs.NewRegistry()
	r, _ := manualRollout(1, 4, reg)
	r.SetCandidate(Deployment{Version: 2, Model: biasPredictor{factor: 1.1}})
	if out := driveWindow(t, r, 4); out != OutcomePromoted {
		t.Fatalf("setup promotion failed: %v", out)
	}
	if !r.Demote() {
		t.Fatal("Demote found nothing to restore")
	}
	if dep := r.Current(); dep.Version != 1 {
		t.Fatalf("demotion restored version %d, want 1", dep.Version)
	}
	_, _, demotions := r.Stats()
	if demotions != 1 {
		t.Fatalf("demotions = %d, want 1", demotions)
	}
}

func TestRolloutDemoteFallsBackToExpert(t *testing.T) {
	expert := biasPredictor{factor: 3}
	r := NewRollout(Deployment{Version: 1, Model: biasPredictor{factor: 2}},
		RolloutOptions{Window: 4, Clock: &mlmath.ManualClock{}, Fallback: expert})
	// No promotion has happened, so there is no previous incumbent: Demote
	// must fall back to the expert.
	if !r.Demote() {
		t.Fatal("Demote with a Fallback returned false")
	}
	dep := r.Current()
	if dep.Version != 0 {
		t.Fatalf("expert fallback version = %d, want 0", dep.Version)
	}
	if got := dep.Model.Predict([]float64{2}); got != 6 {
		t.Fatalf("fallback model predict = %v, want expert's 6", got)
	}
	// With neither previous nor fallback, Demote refuses.
	r2, _ := manualRollout(1, 4, nil)
	if r2.Demote() {
		t.Fatal("Demote with nothing to fall back to returned true")
	}
}

// TestRolloutDeterministicUnderManualClock replays the same shadow schedule
// twice and requires identical decisions and metric values — the replay
// contract of the subsystem.
func TestRolloutDeterministicUnderManualClock(t *testing.T) {
	run := func() (Outcome, string) {
		reg := obs.NewRegistry()
		r, clock := manualRollout(1, 8, reg)
		r.SetCandidate(Deployment{Version: 2, Model: biasPredictor{factor: 1.1}})
		var last Outcome
		for i := 0; i < 8; i++ {
			clock.Advance(time.Millisecond)
			truth := 10 + float64(i%7)
			if o, _ := r.Observe([]float64{truth}, truth); o != OutcomeNone {
				last = o
			}
		}
		return last, reg.Summary()
	}
	o1, s1 := run()
	o2, s2 := run()
	if o1 != o2 || s1 != s2 {
		t.Fatalf("replay diverged:\n%v\n%s\nvs\n%v\n%s", o1, s1, o2, s2)
	}
	if o1 != OutcomePromoted {
		t.Fatalf("replayed outcome = %v, want promotion", o1)
	}
}

// TestMetricsJSONLValidates fills one registry from a Rollout (a promotion,
// a rejection and a demotion) and requires its JSONL export to pass the
// metrics schema with one line for each of the 12 modelsvc.rollout
// instruments.
func TestMetricsJSONLValidates(t *testing.T) {
	reg := obs.NewRegistry()
	r, _ := manualRollout(1, 4, reg)
	r.SetCandidate(Deployment{Version: 2, Model: biasPredictor{factor: 1.1}})
	if out := driveWindow(t, r, 4); out != OutcomePromoted {
		t.Fatalf("better candidate: outcome %v, want promotion", out)
	}
	r.SetCandidate(Deployment{Version: 3, Model: biasPredictor{factor: 5}})
	if out := driveWindow(t, r, 4); out != OutcomeRejected {
		t.Fatalf("worse candidate: outcome %v, want rejection", out)
	}
	if !r.Demote() {
		t.Fatal("Demote found nothing to restore")
	}

	var buf bytes.Buffer
	if err := reg.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := obs.ValidateMetricsJSONL(&buf)
	if err != nil {
		t.Fatalf("metrics JSONL fails its schema: %v", err)
	}
	if n != 12 {
		t.Errorf("validated %d metric lines, want one per modelsvc.rollout instrument (12)", n)
	}
}
