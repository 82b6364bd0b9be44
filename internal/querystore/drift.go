package querystore

import (
	"sort"
	"time"

	"ml4db/internal/obs"
)

// DriftKind identifies what a drift monitor watches.
type DriftKind int

// The monitored trends.
const (
	// DriftQError: an estimator version's windowed mean q-error rose above
	// the trailing baseline times driftQErrRatio.
	DriftQError DriftKind = iota
	// DriftHitRate: the buffer pool's windowed hit rate fell below the
	// trailing baseline by more than driftHitRateDrop (absolute).
	DriftHitRate
	// DriftFallback: the windowed estimator-fallback rate rose above the
	// trailing baseline by more than driftFallbackJump (absolute).
	DriftFallback
)

// String renders the kind for exports and logs.
func (k DriftKind) String() string {
	switch k {
	case DriftQError:
		return "qerror"
	case DriftHitRate:
		return "hitrate"
	case DriftFallback:
		return "fallback"
	default:
		return "unknown"
	}
}

// The window-trend monitors. A monitor compares the mean of the metric over
// the most recent driftRecent sealed windows against the mean over the
// driftBaseline windows before them, and fires once per crossing (it re-arms
// after driftRecent further seals).
const (
	// driftRecent is the evidence span.
	driftRecent = 3
	// driftBaseline is the reference span.
	driftBaseline = 6
	// driftQErrRatio fires DriftQError when recent mean q-error exceeds
	// baseline mean times this ratio.
	driftQErrRatio = 2
	// driftHitRateDrop fires DriftHitRate when the recent hit rate is below
	// the baseline rate minus this absolute drop.
	driftHitRateDrop = 0.2
	// driftFallbackJump fires DriftFallback when the recent fallback rate
	// exceeds the baseline rate plus this absolute jump.
	driftFallbackJump = 0.2
)

// WindowEvidence is one evidence window backing a drift event: the window's
// index and the monitored metric's value in it.
type WindowEvidence struct {
	Window int64
	Value  float64
}

// DriftEvent is one fired monitor: the metric moved from Before (baseline
// mean) to After (recent mean), with the recent windows attached as
// evidence. Seq orders events across kinds.
type DriftEvent struct {
	Seq  int64
	Kind DriftKind
	// At is the end of the window whose seal fired the event.
	At time.Time
	// EstimatorVersion is set for DriftQError (the degrading version).
	EstimatorVersion int
	Before, After    float64
	Evidence         []WindowEvidence
}

// driftState is the monitors' memory, guarded by the store lock (the event
// ledger also guards itself, so snapshots of it need no store lock).
type driftState struct {
	events         *obs.Ledger[DriftEvent]
	lastFired      map[driftFireKey]int64 // window index of last firing
	lastPoolHits   int64
	lastPoolMisses int64
}

type driftFireKey struct {
	kind    DriftKind
	version int
}

// evaluateDriftLocked runs every monitor after sealed joined the ring,
// appending what fires to the drift-event ledger.
func (s *Store) evaluateDriftLocked(sealed WindowStats) {
	wins := s.windows.Snapshot()
	if len(wins) < driftRecent+driftBaseline {
		return
	}
	recent := wins[len(wins)-driftRecent:]
	base := wins[len(wins)-driftRecent-driftBaseline : len(wins)-driftRecent]

	emit := func(kind DriftKind, version int, before, after float64, evidence []WindowEvidence) {
		key := driftFireKey{kind, version}
		if s.drift.lastFired == nil {
			s.drift.lastFired = make(map[driftFireKey]int64)
		}
		if last, ok := s.drift.lastFired[key]; ok && sealed.Index < last+driftRecent {
			return
		}
		s.drift.lastFired[key] = sealed.Index
		s.drift.events.Append(DriftEvent{
			Kind:             kind,
			At:               sealed.End,
			EstimatorVersion: version,
			Before:           before,
			After:            after,
			Evidence:         evidence,
		})
	}

	// q-error trend, per estimator version present in both spans.
	for _, v := range versionsIn(recent) {
		rSum, rCnt := qerrOver(recent, v)
		bSum, bCnt := qerrOver(base, v)
		if rCnt == 0 || bCnt == 0 {
			continue
		}
		rMean := rSum / float64(rCnt)
		bMean := bSum / float64(bCnt)
		if rMean > bMean*driftQErrRatio {
			emit(DriftQError, v, bMean, rMean, evidenceOf(recent, func(w WindowStats) (float64, bool) {
				for _, q := range w.QErr {
					if q.Version == v && q.Count > 0 {
						return q.Mean(), true
					}
				}
				return 0, false
			}))
		}
	}

	// Buffer-pool hit-rate trend.
	if rRate, rOK := hitRateOver(recent); rOK {
		if bRate, bOK := hitRateOver(base); bOK && rRate < bRate-driftHitRateDrop {
			emit(DriftHitRate, 0, bRate, rRate, evidenceOf(recent, WindowStats.hitRate))
		}
	}

	// Estimator-fallback-rate trend.
	if rRate, rOK := fallbackRateOver(recent); rOK {
		if bRate, bOK := fallbackRateOver(base); bOK && rRate > bRate+driftFallbackJump {
			emit(DriftFallback, 0, bRate, rRate, evidenceOf(recent, func(w WindowStats) (float64, bool) {
				if w.Queries == 0 {
					return 0, false
				}
				return float64(w.Fallbacks) / float64(w.Queries), true
			}))
		}
	}
}

func versionsIn(wins []WindowStats) []int {
	seen := map[int]bool{}
	for _, w := range wins {
		for _, q := range w.QErr {
			seen[q.Version] = true
		}
	}
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

func qerrOver(wins []WindowStats, version int) (sum float64, count int64) {
	for _, w := range wins {
		for _, q := range w.QErr {
			if q.Version == version {
				sum += q.Sum
				count += q.Count
			}
		}
	}
	return sum, count
}

func hitRateOver(wins []WindowStats) (float64, bool) {
	var hits, misses int64
	for _, w := range wins {
		hits += w.PoolHits
		misses += w.PoolMisses
	}
	if hits+misses == 0 {
		return 0, false
	}
	return float64(hits) / float64(hits+misses), true
}

func fallbackRateOver(wins []WindowStats) (float64, bool) {
	var fb, q int64
	for _, w := range wins {
		fb += w.Fallbacks
		q += w.Queries
	}
	if q == 0 {
		return 0, false
	}
	return float64(fb) / float64(q), true
}

func evidenceOf(wins []WindowStats, value func(WindowStats) (float64, bool)) []WindowEvidence {
	out := make([]WindowEvidence, 0, len(wins))
	for _, w := range wins {
		if v, ok := value(w); ok {
			out = append(out, WindowEvidence{Window: w.Index, Value: v})
		}
	}
	return out
}

// DriftEvents returns the retained drift events in emission order; Seq
// numbers them from 1, so a reader polls for what is new since the last Seq
// it saw.
func (s *Store) DriftEvents() []DriftEvent {
	if s == nil {
		return nil
	}
	return s.drift.events.Snapshot()
}
