package querystore

import (
	"sort"
	"time"
)

// VersionQErr is one estimator version's q-error aggregate within a window.
type VersionQErr struct {
	Version int
	Count   int64
	Sum     float64
	Max     float64
}

// Mean returns the mean per-call q-error, or 0 with no samples.
func (v VersionQErr) Mean() float64 {
	if v.Count == 0 {
		return 0
	}
	return v.Sum / float64(v.Count)
}

// WindowStats is one sealed aggregation window. Index is the window's
// position on the logical timeline (consecutive windows over an idle period
// are skipped, so indexes can jump); [Start, End) is its clock interval.
type WindowStats struct {
	Index        int64
	Start, End   time.Time
	Queries      int64
	CacheHits    int64
	Fallbacks    int64
	BudgetAborts int64
	TotalWork    int64
	TotalRows    int64
	PageMisses   int64
	// QErr holds per-estimator-version q-error aggregates, sorted by
	// version. Version 0 is the classical planner.
	QErr []VersionQErr
	// PoolHits/PoolMisses are the buffer-pool deltas over the window
	// (sampled from Options.Pool at seal time; zero without a pool).
	PoolHits   int64
	PoolMisses int64
}

// winAgg is the open (current) window being accumulated.
type winAgg struct {
	index        int64
	start        time.Time
	queries      int64
	cacheHits    int64
	fallbacks    int64
	budgetAborts int64
	totalWork    int64
	totalRows    int64
	pageMisses   int64
	qerr         map[int]*VersionQErr
}

func (w *winAgg) add(o Observation, h harvestResult) {
	w.queries++
	if o.CacheHit {
		w.cacheHits++
	}
	if o.Fallback {
		w.fallbacks++
	}
	if o.BudgetAbort {
		w.budgetAborts++
	}
	w.totalWork += o.Work
	w.totalRows += o.Rows
	w.pageMisses += o.PageMisses
	if h.ok {
		if w.qerr == nil {
			w.qerr = make(map[int]*VersionQErr)
		}
		v, ok := w.qerr[o.EstimatorVersion]
		if !ok {
			v = &VersionQErr{Version: o.EstimatorVersion}
			w.qerr[o.EstimatorVersion] = v
		}
		v.Count++
		v.Sum += h.qerrMean
		if h.qerrMax > v.Max {
			v.Max = h.qerrMax
		}
	}
}

// seal converts the open window into its exported form.
func (w *winAgg) seal() WindowStats {
	ws := WindowStats{
		Index:        w.index,
		Start:        w.start,
		End:          w.start.Add(window),
		Queries:      w.queries,
		CacheHits:    w.cacheHits,
		Fallbacks:    w.fallbacks,
		BudgetAborts: w.budgetAborts,
		TotalWork:    w.totalWork,
		TotalRows:    w.totalRows,
		PageMisses:   w.pageMisses,
	}
	versions := make([]int, 0, len(w.qerr))
	for v := range w.qerr {
		versions = append(versions, v)
	}
	sort.Ints(versions)
	for _, v := range versions {
		ws.QErr = append(ws.QErr, *w.qerr[v])
	}
	return ws
}

// hitRate returns the window's buffer-pool hit rate; ok is false (and the
// rate 0) for a window with no pool traffic.
func (w WindowStats) hitRate() (rate float64, ok bool) {
	if w.PoolHits+w.PoolMisses == 0 {
		return 0, false
	}
	return float64(w.PoolHits) / float64(w.PoolHits+w.PoolMisses), true
}

// advanceLocked moves the window frontier to cover now, sealing the current
// window if the clock has left it.
func (s *Store) advanceLocked(now time.Time) {
	if !s.curStarted {
		s.curStarted = true
		s.cur = winAgg{index: s.nextIndex, start: now}
		return
	}
	if now.Before(s.cur.start.Add(window)) {
		return
	}
	// Whole windows elapsed since the current one opened; skip the empty
	// ones so an idle store does not flood the ring.
	k := now.Sub(s.cur.start) / window
	s.sealLocked()
	s.cur = winAgg{index: s.cur.index + int64(k), start: s.cur.start.Add(k * window)}
	s.curStarted = true
}

// sealLocked pushes the current (non-empty) window into the ring, samples
// the pool delta, and runs the drift monitors. The current window resets to
// unstarted; the next observation opens a fresh one, with the next index.
func (s *Store) sealLocked() {
	if s.curStarted {
		s.nextIndex = s.cur.index + 1
	}
	if !s.curStarted || s.cur.queries == 0 {
		s.curStarted = false
		return
	}
	ws := s.cur.seal()
	if s.opts.Pool != nil {
		ps := s.opts.Pool.Stats()
		ws.PoolHits = ps.Hits - s.drift.lastPoolHits
		ws.PoolMisses = ps.Misses - s.drift.lastPoolMisses
		s.drift.lastPoolHits = ps.Hits
		s.drift.lastPoolMisses = ps.Misses
	}
	s.windows.Append(ws)
	s.curStarted = false
	s.evaluateDriftLocked(ws)
}

// LastWindowIndex returns the index of the current open window, or of the
// most recently sealed one when none is open, or -1 before any observation.
// Tuning trials anchor on it: "wait N more windows" means N sealed windows
// with a larger index.
func (s *Store) LastWindowIndex() int64 {
	if s == nil {
		return -1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.curStarted {
		return s.cur.index
	}
	if wins := s.windows.Snapshot(); len(wins) > 0 {
		return wins[len(wins)-1].Index
	}
	return -1
}

// Windows returns the sealed windows, oldest first.
func (s *Store) Windows() []WindowStats {
	if s == nil {
		return nil
	}
	return s.windows.Snapshot()
}
