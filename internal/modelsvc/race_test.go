package modelsvc

import (
	"math"
	"strconv"
	"sync"
	"testing"
	"time"

	"ml4db/internal/mlmath"
)

// versionPredictor returns its version as the prediction, so every served
// value proves which deployment produced it: a torn read — a value from one
// version paired with another version's number — is detectable exactly.
type versionPredictor struct{ version int }

func (p versionPredictor) Predict(x []float64) float64 { return float64(p.version) }

// TestRolloutHotSwapUnderRace hammers Rollout.Current from reader
// goroutines while the main goroutine drives promotions and demotions
// through the canary gate. Run under -race this checks the subsystem's
// concurrency contract: no data races, no torn reads, and every request is
// served by exactly one coherent version (val == float64(version) always).
//
// Test files are exempt from the determinism analyzer, so goroutines are
// fine here; the production code under test still spawns none.
func TestRolloutHotSwapUnderRace(t *testing.T) {
	clock := &mlmath.ManualClock{T: time.Unix(1700000000, 0)}
	rollout := NewRollout(Deployment{Version: 1, Model: versionPredictor{version: 1}},
		RolloutOptions{Window: 4, Clock: clock, ErrFn: func(pred, truth float64) float64 {
			// Score a versionPredictor by distance from the truth the driver
			// chooses, letting the driver steer promotions and rejections.
			return math.Abs(pred - truth)
		}})

	// Readers run until the driver has finished, so every swap lands
	// between reads.
	const readers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	stopReaders := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopReaders()
	errs := make(chan string, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			x := []float64{float64(g)}
			for {
				select {
				case <-stop:
					return
				default:
				}
				dep := rollout.Current()
				if val := dep.Model.Predict(x); val != float64(dep.Version) {
					errs <- "torn read: value " + strconv.Itoa(int(val)) + " served as version " + strconv.Itoa(dep.Version)
					return
				}
			}
		}(g)
	}

	// Drive promotions 1→2→3→… and periodic demotions concurrently with the
	// readers. Truth equal to the candidate's version makes the candidate
	// strictly better; truth equal to the incumbent's makes it strictly worse.
	next := 2
	for round := 0; round < 25; round++ {
		cand := versionPredictor{version: next}
		rollout.SetCandidate(Deployment{Version: next, Model: cand})
		promote := round%3 != 2
		truth := float64(next)
		if !promote {
			truth = float64(rollout.Current().Version)
		}
		var out Outcome
		for i := 0; i < 4; i++ {
			out, _ = rollout.Observe([]float64{0}, truth)
		}
		if promote {
			if out != OutcomePromoted {
				t.Fatalf("round %d: expected promotion, got %v", round, out)
			}
			next++
			if round%5 == 4 {
				rollout.Demote()
			}
		} else if out != OutcomeRejected {
			t.Fatalf("round %d: expected rejection, got %v", round, out)
		}
	}
	stopReaders()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}
