package cardest

import (
	"testing"

	"ml4db/internal/mlmath"
	"ml4db/internal/modelsvc"
	"ml4db/internal/nn"
)

// driftHarness builds an adapter with a 10-observation window. Tests drive
// the shadow gate explicitly through StartShadow and Observe: a decided
// window restarts the monitor, so at most Window observations past a shadow
// never fill it and auto-retraining never steps in.
func driftHarness(t *testing.T, trained bool) (*testbed, *DriftAdapter) {
	t.Helper()
	tb := newTestbed(t, 31, 400, 80)
	m := NewMLPEstimator(tb.f, []int{24, 12}, mlmath.NewRNG(32))
	if trained {
		m.Train(tb.trainQ, tb.trainY, 80)
	}
	ad := NewDriftAdapter(m)
	ad.Window = 10
	return tb, ad
}

// TestDriftWorseCandidateNeverPromoted is the regression test the issue
// demands: a candidate strictly worse than the incumbent must be rejected
// by the shadow gate, and the serving model must be bit-identical to what
// it was before the candidate appeared.
func TestDriftWorseCandidateNeverPromoted(t *testing.T) {
	tb, ad := driftHarness(t, true)
	incumbent := ad.Model
	probe := tb.testQ[0]
	before := ad.EstimateFraction(probe)

	// A deliberately broken candidate: same architecture, scrambled weights.
	cand := incumbent.Clone(nil)
	for _, p := range cand.Net.Params() {
		for i := range p.Val {
			p.Val[i] = p.Val[i]*3 + 1
		}
	}
	ad.StartShadow(cand, nil)
	for i := 0; i < ad.Window; i++ {
		ad.Observe(tb.testQ[i], tb.testY[i])
	}
	if promotions, rejections, _ := ad.Rollout().Stats(); promotions != 0 || rejections != 1 {
		t.Fatalf("worse candidate: %d promotions, %d rejections, want 0 and 1", promotions, rejections)
	}
	if ad.Model != incumbent {
		t.Fatal("serving model changed despite rejection")
	}
	if got := ad.EstimateFraction(probe); got != before {
		t.Fatalf("serving prediction drifted across a rejected rollout: %v vs %v", got, before)
	}
	if ad.Rollout().State() != modelsvc.Stable {
		t.Fatal("rollout did not return to Stable after rejection")
	}
}

// TestDriftBetterCandidatePromoted covers the complementary path: a trained
// candidate shadowing an untrained incumbent wins its window and is
// hot-swapped in as the serving model.
func TestDriftBetterCandidatePromoted(t *testing.T) {
	tb, ad := driftHarness(t, false)
	incumbent := ad.Model
	cand := incumbent.Clone(mlmath.NewRNG(33))
	cand.Train(tb.trainQ, tb.trainY, 80)

	ad.StartShadow(cand, nil)
	for i := 0; i < ad.Window; i++ {
		ad.Observe(tb.testQ[i], tb.testY[i])
	}
	if promotions, rejections, _ := ad.Rollout().Stats(); promotions != 1 {
		t.Fatalf("promotions = %d, want 1 (rejections %d)", promotions, rejections)
	}
	if ad.Model != cand {
		t.Fatal("promotion did not swap the serving model to the candidate")
	}
	if ad.Model == incumbent {
		t.Fatal("incumbent still serving after promotion")
	}
}

// TestDriftPublishesToRegistry checks the registry wiring: the incumbent is
// published as the baseline version on first use, every shadow candidate
// becomes a versioned checkpoint with its metadata, and the stored payload
// round-trips into a model of the same architecture.
func TestDriftPublishesToRegistry(t *testing.T) {
	tb, ad := driftHarness(t, true)
	reg, err := modelsvc.OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ad.Registry = reg

	cand := ad.Model.Clone(nil)
	version := ad.StartShadow(cand, map[string]string{"trigger": "drift"})
	if ad.PublishErr != nil {
		t.Fatalf("publish failed: %v", ad.PublishErr)
	}
	if version != 2 {
		t.Fatalf("candidate version = %d, want 2 (after baseline v1)", version)
	}
	list, err := reg.List("cardest-mlp")
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("registry holds %d versions, want baseline + candidate", len(list))
	}
	if list[0].Meta["trigger"] != "baseline" || list[1].Meta["trigger"] != "drift" {
		t.Fatalf("manifest metadata wrong: %+v", list)
	}
	if list[1].ArchHash != nn.ArchHash(cand.Net) {
		t.Fatal("candidate manifest arch hash does not match the model")
	}
	// The stored candidate loads back into a same-architecture model.
	restored := NewMLPEstimator(tb.f, []int{24, 12}, mlmath.NewRNG(99))
	if _, err := modelsvc.LoadModule(reg, "cardest-mlp", version, restored.Net); err != nil {
		t.Fatal(err)
	}
	probe := tb.testQ[1]
	if restored.EstimateFraction(probe) != cand.EstimateFraction(probe) {
		t.Fatal("restored candidate predicts differently from the published one")
	}
}

// TestStartShadowLeavesCallerMetaAlone: publishing a candidate tags its
// manifest with component=cardest without writing into the map the caller
// passed, so a caller may reuse one meta map across candidates.
func TestStartShadowLeavesCallerMetaAlone(t *testing.T) {
	_, ad := driftHarness(t, true)
	reg, err := modelsvc.OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ad.Registry = reg
	meta := map[string]string{"trigger": "manual", "owner": "ops"}
	version := ad.StartShadow(ad.Model.Clone(nil), meta)
	if ad.PublishErr != nil {
		t.Fatalf("publish failed: %v", ad.PublishErr)
	}
	if len(meta) != 2 || meta["trigger"] != "manual" || meta["owner"] != "ops" {
		t.Fatalf("StartShadow rewrote the caller's meta map: %v", meta)
	}
	list, err := reg.List("cardest-mlp")
	if err != nil {
		t.Fatal(err)
	}
	got := list[len(list)-1]
	if got.Version != version || got.Meta["trigger"] != "manual" || got.Meta["owner"] != "ops" ||
		got.Meta["component"] != "cardest" {
		t.Fatalf("candidate manifest v%d meta = %v, want the caller's keys plus component=cardest", got.Version, got.Meta)
	}
}

// TestMLPEstimatorCloneIsolation: training a clone leaves the original's
// parameters untouched.
func TestMLPEstimatorCloneIsolation(t *testing.T) {
	tb := newTestbed(t, 34, 200, 20)
	m := NewMLPEstimator(tb.f, []int{16}, mlmath.NewRNG(35))
	m.Train(tb.trainQ[:100], tb.trainY[:100], 20)
	probe := tb.testQ[0]
	before := m.EstimateFraction(probe)

	c := m.Clone(mlmath.NewRNG(36))
	if c.EstimateFraction(probe) != before {
		t.Fatal("clone does not reproduce the original's predictions")
	}
	c.Train(tb.trainQ[100:], tb.trainY[100:], 20)
	if got := m.EstimateFraction(probe); got != before {
		t.Fatalf("training the clone mutated the original: %v vs %v", got, before)
	}
}
