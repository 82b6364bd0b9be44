package storage

import (
	"math"
	"reflect"
	"testing"

	"ml4db/internal/modelsvc"
)

func TestRecencyUnderLearnedPolicyIsLRU(t *testing.T) {
	// The Recency scorer's predicted reuse distance is exactly the recency
	// feature, so argmax-prediction eviction must reproduce LRU's choices on
	// any trace.
	pattern := accessPattern(12, 300)
	lru := runTrace(t, nil, "lru.heap", pattern, 12)
	rec := runTrace(t, Recency{}, "rec.heap", pattern, 12)
	if len(lru) == 0 || !reflect.DeepEqual(lru, rec) {
		t.Fatalf("Recency scorer diverges from LRU:\n%v\n%v", lru, rec)
	}
}

// predictorFunc adapts a function to modelsvc.Predictor.
type predictorFunc func(x []float64) float64

func (f predictorFunc) Predict(x []float64) float64 { return f(x) }

// evictionFeatures is fillFeatures into a fresh vector.
func evictionFeatures(recency, count, gap uint64) []float64 {
	return fillFeatures(make([]float64, FeatureDim), recency, count, gap)
}

func TestTraceSamplesLabels(t *testing.T) {
	a, b := PageKey{0, 0}, PageKey{0, 1}
	// Accesses: a b a b — the second a (index 2) has history (from index 0)
	// and no future occurrence → capped at horizon; the second b likewise.
	// Index-1 b has history none (first sight), index-0 a none.
	trace := []PageKey{a, b, a, b}
	samples := TraceSamples(trace, 8)
	if len(samples) != 2 {
		t.Fatalf("got %d samples, want 2", len(samples))
	}
	// First sample: page a at tick 3, recency = 3-1 = 2, count 1, gap 0.
	wantX := evictionFeatures(2, 1, 0)
	if !reflect.DeepEqual(samples[0].X, wantX) {
		t.Fatalf("sample 0 X = %v, want %v", samples[0].X, wantX)
	}
	// No future occurrence of a → label caps at the horizon.
	if samples[0].Y != math.Log1p(8) {
		t.Fatalf("sample 0 Y = %v, want log1p(8)", samples[0].Y)
	}
}

func TestTraceSamplesForwardDistance(t *testing.T) {
	a := PageKey{0, 0}
	trace := []PageKey{a, a, a}
	samples := TraceSamples(trace, 100)
	if len(samples) != 2 {
		t.Fatalf("got %d samples, want 2", len(samples))
	}
	// Middle access: next occurrence is 1 step away.
	if samples[0].Y != math.Log1p(1) {
		t.Fatalf("sample 0 Y = %v, want log1p(1)", samples[0].Y)
	}
}

func TestTrainScorerDeterministic(t *testing.T) {
	pattern := accessPattern(8, 200)
	trace := make([]PageKey, len(pattern))
	for i, p := range pattern {
		trace[i] = PageKey{0, uint32(p)}
	}
	samples := TraceSamples(trace, 64)
	s1, err := TrainScorer(samples, 11, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := TrainScorer(samples, 11, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	probes := [][]float64{
		evictionFeatures(1, 3, 2),
		evictionFeatures(50, 1, 0),
		evictionFeatures(7, 20, 4),
	}
	for _, x := range probes {
		a, b := s1.Predict(x), s2.Predict(x)
		if a != b {
			t.Fatalf("same seed diverges: %v != %v on %v", a, b, x)
		}
		if math.IsNaN(a) || math.IsInf(a, 0) {
			t.Fatalf("non-finite prediction %v on %v", a, x)
		}
	}
	if _, err := TrainScorer(nil, 1, 1, nil); err == nil {
		t.Fatal("training on no samples succeeded")
	}
}

func TestGatePromotesBetterScorerRejectsWorse(t *testing.T) {
	// Labels equal the count feature, where Recency (which reads the
	// recency feature) is systematically wrong: a candidate reading the
	// count feature has zero error and must be promoted.
	var samples []Sample
	for i := 0; i < 300; i++ {
		x := evictionFeatures(uint64(i%17+1), uint64(i%5+1), uint64(i%3))
		samples = append(samples, Sample{X: x, Y: x[1]})
	}
	roll := NewScorerRollout(100)
	if v := roll.Current().Version; v != 0 {
		t.Fatalf("initial version = %d", v)
	}
	roll.SetCandidate(modelsvc.Deployment{Version: 7, Model: predictorFunc(func(x []float64) float64 { return x[1] })})
	promos, rejects := replaySamples(roll, samples)
	if promos != 1 || rejects != 0 {
		t.Fatalf("good candidate: promos=%d rejects=%d", promos, rejects)
	}
	if v := roll.Current().Version; v != 7 {
		t.Fatalf("serving version = %d after promotion", v)
	}
	// The promoted scorer now serves predictions.
	x := evictionFeatures(9, 4, 1)
	if got := roll.Predict(x); got != x[1] {
		t.Fatalf("Predict = %v, want the count feature %v", got, x[1])
	}

	// A wildly-off candidate must be rejected and leave the incumbent.
	roll.SetCandidate(modelsvc.Deployment{Version: 8, Model: predictorFunc(func([]float64) float64 { return 1e6 })})
	promos, rejects = replaySamples(roll, samples)
	if promos != 0 || rejects == 0 {
		t.Fatalf("bad candidate: promos=%d rejects=%d", promos, rejects)
	}
	if v := roll.Current().Version; v != 7 {
		t.Fatalf("rejection changed serving version to %d", v)
	}

	// Demotion reverts to the previous incumbent (the Recency heuristic).
	if !roll.Demote() {
		t.Fatal("demote failed")
	}
	if v := roll.Current().Version; v != 0 {
		t.Fatalf("post-demotion version = %d, want 0", v)
	}
	if got := roll.Predict(x); got != x[0] {
		t.Fatalf("post-demotion Predict = %v, want the recency feature %v", got, x[0])
	}
	_, _, demotions := roll.Stats()
	if demotions != 1 {
		t.Fatalf("demotions = %d", demotions)
	}
}

// replaySamples shadow-scores the rollout's candidate over a replay of
// labeled samples and counts the promotions and rejections it decides.
func replaySamples(roll *modelsvc.Rollout, samples []Sample) (promotions, rejections int) {
	for _, s := range samples {
		switch out, _ := roll.Observe(s.X, s.Y); out {
		case modelsvc.OutcomePromoted:
			promotions++
		case modelsvc.OutcomeRejected:
			rejections++
		case modelsvc.OutcomeNone:
		}
	}
	return promotions, rejections
}

func TestGateTrainedScorerBeatsRecencyOnBurstyWorkload(t *testing.T) {
	// Bursty accesses (each page touched twice back-to-back, then not for a
	// round) make recency systematically wrong: right after the second
	// touch the page looks hot (recency 1) but won't return for a full
	// round, and at the start of a burst it looks cold but returns in one
	// tick. The true forward distance equals the last inter-access gap — a
	// feature a trained scorer can read and the Recency heuristic cannot.
	var trace []PageKey
	for rep := 0; rep < 80; rep++ {
		for p := 0; p < 6; p++ {
			trace = append(trace, PageKey{0, uint32(p)}, PageKey{0, uint32(p)})
		}
	}
	samples := TraceSamples(trace, 32)
	sc, err := TrainScorer(samples, 3, 30, nil)
	if err != nil {
		t.Fatal(err)
	}
	roll := NewScorerRollout(200)
	roll.SetCandidate(modelsvc.Deployment{Version: 1, Model: sc})
	promos, rejects := replaySamples(roll, samples)
	if promos == 0 {
		t.Fatalf("trained scorer never promoted (rejects=%d)", rejects)
	}
	if v := roll.Current().Version; v != 1 {
		t.Fatalf("serving version = %d", v)
	}
}
