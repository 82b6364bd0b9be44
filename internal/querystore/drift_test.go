package querystore

import (
	"slices"
	"testing"
	"time"

	"ml4db/internal/mlmath"
	"ml4db/internal/modelsvc"
	"ml4db/internal/sqlkit/plan"
)

// obsWithQErr fabricates an observation whose single-node plan yields the
// given q-error (est = q*actual pseudocounted away by large numbers).
func obsWithQErr(version int, q float64) Observation {
	n := plan.NewScan(0, 0, nil)
	n.EstRows = q*1e6 - 1
	return Observation{Shape: "q", Plan: n, Actuals: []plan.Actual{{Rows: 1e6 - 1}}, EstimatorVersion: version}
}

// feed drives the monitors one window at a time: fill(i) makes window i's
// observations, and its first Record seals window i-1 (the monitors run at
// each seal); a final Flush seals the last window. It returns how many drift
// events existed after each window's seal.
func feed(s *Store, mc *mlmath.ManualClock, windows int, fill func(i int)) []int {
	counts := make([]int, windows)
	for i := range windows {
		fill(i)
		if i > 0 {
			counts[i-1] = len(s.DriftEvents())
		}
		mc.Advance(time.Second)
	}
	s.Flush()
	counts[windows-1] = len(s.DriftEvents())
	return counts
}

// baseline returns n windows' worth of the steady value v.
func baseline[T any](n int, v T) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// wantFirings checks a monitor that first fires at the seal of window 8 —
// the first with 3 recent windows and a baseline of 6 behind them — and,
// the condition still holding, stays quiet for the 2 seals after it and
// fires again at the 3rd.
func wantFirings(t *testing.T, counts []int) {
	t.Helper()
	const first, holdFor = 8, 3
	want := make([]int, len(counts))
	for i := range want {
		switch {
		case i >= first+holdFor:
			want[i] = 2
		case i >= first:
			want[i] = 1
		}
	}
	if !slices.Equal(counts, want) {
		t.Fatalf("drift events after each seal = %v, want %v", counts, want)
	}
}

// TestQErrorDrift: a recent mean q-error at exactly driftQErrRatio times the
// baseline does not fire; one just past it does, with the recent windows as
// evidence, and the monitor then holds for driftRecent windows.
func TestQErrorDrift(t *testing.T) {
	run := func(recent ...float64) (*Store, []int) {
		s, mc := manualStore(Options{})
		qs := append(baseline(driftBaseline, 1.0), recent...)
		return s, feed(s, mc, len(qs), func(i int) { s.Record(obsWithQErr(1, qs[i])) })
	}
	if s, _ := run(2, 2, 2); len(s.DriftEvents()) != 0 {
		t.Fatalf("q-error at the ratio fired: %+v", s.DriftEvents())
	}
	s, counts := run(2, 2, 2.01, 100, 100, 100)
	wantFirings(t, counts)
	ev := s.DriftEvents()[0]
	if ev.Kind != DriftQError || ev.EstimatorVersion != 1 || ev.Seq != 1 {
		t.Errorf("event = %+v, want the first qerror drift, for version 1", ev)
	}
	if ev.Before != 1 || ev.After <= 2 || ev.After > 2.01 {
		t.Errorf("before/after = %v/%v, want 1 -> just over 2", ev.Before, ev.After)
	}
	if len(ev.Evidence) != driftRecent || ev.Evidence[0].Window != driftBaseline {
		t.Errorf("evidence = %+v, want the %d recent windows", ev.Evidence, driftRecent)
	}
}

// TestFallbackDriftAndCooldown: a recent fallback rate driftFallbackJump
// above the baseline does not fire; one just past it does, and the monitor
// then holds for driftRecent windows.
func TestFallbackDriftAndCooldown(t *testing.T) {
	run := func(recent ...int) (*Store, []int) {
		s, mc := manualStore(Options{})
		fbs := append(baseline(driftBaseline, 0), recent...)
		return s, feed(s, mc, len(fbs), func(i int) {
			for q := range 5 {
				s.Record(Observation{Shape: "a", Fallback: q < fbs[i]})
			}
		})
	}
	// Three fallbacks in fifteen queries: a rate of exactly 0.2.
	if s, _ := run(1, 1, 1); len(s.DriftEvents()) != 0 {
		t.Fatalf("fallback rate at the jump fired: %+v", s.DriftEvents())
	}
	s, counts := run(1, 1, 2, 5, 5, 5)
	wantFirings(t, counts)
	if ev := s.DriftEvents()[0]; ev.Kind != DriftFallback || ev.Before != 0 || ev.After != 4.0/15 {
		t.Errorf("event = %+v, want fallback drift 0 -> 4/15", ev)
	}
}

// TestHitRateDrift: a recent pool hit rate driftHitRateDrop below the
// baseline does not fire; one just past it does, and the monitor then holds
// for driftRecent windows.
func TestHitRateDrift(t *testing.T) {
	run := func(recentHits ...int64) (*Store, []int) {
		var pool fakePool
		s, mc := manualStore(Options{Pool: &pool})
		hits := append(baseline(driftBaseline, int64(100)), recentHits...)
		return s, feed(s, mc, len(hits), func(i int) {
			s.Record(Observation{Shape: "a"})
			// Window i's pool traffic, sampled when it seals.
			pool.stats.Hits += hits[i]
			pool.stats.Misses += 100 - hits[i]
		})
	}
	// 240 hits in 300 accesses: a rate of exactly 1 - 0.2.
	if s, _ := run(80, 80, 80); len(s.DriftEvents()) != 0 {
		t.Fatalf("hit rate at the drop fired: %+v", s.DriftEvents())
	}
	s, counts := run(80, 80, 79, 0, 0, 0)
	wantFirings(t, counts)
	if ev := s.DriftEvents()[0]; ev.Kind != DriftHitRate || ev.Before != 1 || ev.After != 239.0/300 {
		t.Errorf("event = %+v, want hitrate drift 1 -> 239/300", ev)
	}
}

func TestModelEventsFromRollout(t *testing.T) {
	s, _ := manualStore(Options{})
	s.RecordModelInstall(1)

	r := modelsvc.NewRollout(
		modelsvc.Deployment{Version: 1, Model: constModel(10)},
		modelsvc.RolloutOptions{Window: 2, Events: s.RecordRollout},
	)
	r.SetCandidate(modelsvc.Deployment{Version: 2, Model: constModel(5)})
	// Candidate is closer to truth 6: promoted after the window fills.
	r.Observe([]float64{0}, 6)
	if out, _ := r.Observe([]float64{0}, 6); out != modelsvc.OutcomePromoted {
		t.Fatalf("outcome = %v, want promoted", out)
	}
	if !r.Demote() {
		t.Fatal("demote failed")
	}

	evs := s.ModelEvents()
	want := []struct {
		action    ModelAction
		version   int
		incumbent int
	}{
		{ModelInstall, 1, 1},
		{ModelCandidate, 2, 1},
		{ModelPromoted, 2, 2},
		{ModelDemoted, 1, 1},
	}
	if len(evs) != len(want) {
		t.Fatalf("model events = %+v, want %d", evs, len(want))
	}
	for i, w := range want {
		e := evs[i]
		if e.Action != w.action || e.Version != w.version || e.Incumbent != w.incumbent {
			t.Errorf("event %d = %+v, want %+v", i, e, w)
		}
		if e.Seq != int64(i+1) {
			t.Errorf("event %d seq = %d, want %d", i, e.Seq, i+1)
		}
	}
}

type constModel float64

func (m constModel) Predict([]float64) float64 { return float64(m) }
