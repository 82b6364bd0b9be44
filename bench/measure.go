package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"

	"ml4db/internal/engine"
	"ml4db/internal/mlmath"
)

// op is one prepared operation: the SQL the engine gets and the reference
// its result is held to.
type op struct {
	sql  string
	tmpl int
	ref  *reference
}

// verify returns nil when the query succeeded and its rows are a right
// answer, and otherwise the error a failed op is reported with.
func (o *op) verify(res *engine.RowsResult, err error) error {
	switch {
	case err != nil:
	case !o.ref.check(res.Rows):
		err = fmt.Errorf("wrong result: got %d rows, reference has %d", len(res.Rows), o.ref.count)
	default:
		return nil
	}
	return fmt.Errorf("%s: %w", o.sql, err)
}

// A harness drives one env through rounds of its operation sequence. A
// round is opsPerRound consecutive ops; for a warm workload every round is
// the same statement cycle, for adhoc_plan every round is new statements.
type harness struct {
	env *env
	seq *sequence
	// cycleOps caches the prepared round of a warm workload.
	cycleOps []op
	// corrupt flips one reference checksum, to prove a wrong result is
	// counted and fails the command.
	corrupt bool
}

func newHarness(e *env, seed uint64) *harness {
	return &harness{env: e, seq: e.def.newSequence(seed)}
}

// round prepares round r: statements and their references. This is harness
// work, done outside every measurement window.
func (h *harness) round(r int, warmup bool) ([]op, error) {
	if h.cycleOps != nil {
		return h.cycleOps, nil
	}
	n := h.seq.opsPerRound
	refs := map[string]*reference{}
	ops := make([]op, n)
	for k := range ops {
		s := h.seq.op(r*n+k, warmup)
		ref := refs[s.sql]
		if ref == nil {
			var err error
			if ref, err = h.env.ref.eval(&s); err != nil {
				return nil, err
			}
			refs[s.sql] = ref
		}
		ops[k] = op{sql: s.sql, tmpl: s.tmpl, ref: ref}
	}
	if h.corrupt {
		bad := *ops[0].ref
		bad.sum++
		bad.ordered++
		bad.count++
		ops[0].ref = &bad
	}
	if h.seq.cycle != nil {
		h.cycleOps = ops
	}
	return ops, nil
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// passStats is what one pass over some rounds measured.
type passStats struct {
	ops, failed int
	firstErr    error
	// lat holds every op's Session.Query latency in ns, in issue order, and
	// scaled the same latencies at reference speed (see calibrate); tmpl[i]
	// is op i's template. roundEnd[r] is the index after round r.
	lat, scaled []int64
	tmpl        []uint8
	roundEnd    []int
	// check is the time spent comparing results to their references, which
	// is inside the CPU and allocation windows; query is Σ lat.
	query, check time.Duration
	// cpu is process CPU time over the ops, at reference speed; speeds holds
	// every block's scaling factor.
	cpu            time.Duration
	speeds         []float64
	mallocs, bytes uint64
	gcCycles       uint32
	gcPause        time.Duration
	heapSys        uint64
}

// blockLen is how often the machine's speed is sampled during a pass.
const blockLen = 100 * time.Millisecond

// run measures whole rounds until stop says so (stop sees the rounds done
// and the time since the pass began). Everything that is not the round's
// ops — statement generation, references, growing the latency buffers,
// calibration — sits outside the windows the CPU, allocation and latency
// numbers are taken over.
//
// A round runs as blocks of about blockLen, with a speed sample between
// blocks; a block's times are scaled by the mean of the samples either side
// of it.
func (h *harness) run(warmup bool, firstRound int, stop func(rounds int, elapsed time.Duration) bool) (*passStats, error) {
	ps := &passStats{}
	began := time.Now()
	var m0, m1 runtime.MemStats
	for r := 0; !stop(r, time.Since(began)); r++ {
		ops, err := h.round(firstRound+r, warmup)
		if err != nil {
			return nil, err
		}
		ps.lat = slices.Grow(ps.lat, len(ops))
		ps.scaled = slices.Grow(ps.scaled, len(ops))
		ps.tmpl = slices.Grow(ps.tmpl, len(ops))
		runtime.ReadMemStats(&m0)
		before := calibrate()
		for i := 0; i < len(ops); {
			blockStart := len(ps.lat)
			cpu0 := cpuTime()
			for blockBegan := time.Now(); i < len(ops); i++ {
				o := &ops[i]
				t0 := time.Now()
				res, err := h.env.sess.Query(o.sql)
				t1 := time.Now()
				if err := o.verify(res, err); err != nil {
					ps.failed++
					if ps.firstErr == nil {
						ps.firstErr = err
					}
				}
				ps.lat = append(ps.lat, int64(t1.Sub(t0)))
				ps.tmpl = append(ps.tmpl, uint8(o.tmpl))
				ps.query += t1.Sub(t0)
				ps.check += time.Since(t1)
				if t1.Sub(blockBegan) >= blockLen {
					i++
					break
				}
			}
			cpu := cpuTime() - cpu0
			after := calibrate()
			speed := speedOf(before, after)
			ps.speeds = append(ps.speeds, speed)
			for _, v := range ps.lat[blockStart:] {
				ps.scaled = append(ps.scaled, int64(float64(v)*speed))
			}
			ps.cpu += time.Duration(float64(cpu) * speed)
			before = after
		}
		runtime.ReadMemStats(&m1)
		ps.mallocs += m1.Mallocs - m0.Mallocs
		ps.bytes += m1.TotalAlloc - m0.TotalAlloc
		ps.gcCycles += m1.NumGC - m0.NumGC
		ps.gcPause += time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
		ps.heapSys = m1.HeapSys
		ps.ops += len(ops)
		ps.roundEnd = append(ps.roundEnd, len(ps.lat))
	}
	return ps, nil
}

// roundsOf stops after exactly n rounds.
func roundsOf(n int) func(int, time.Duration) bool {
	return func(rounds int, _ time.Duration) bool { return rounds >= n }
}

// percentile returns the nearest-rank q-quantile of sorted, and false when
// fewer than ten samples lie beyond it — a percentile that far out in the
// sample does not repeat from run to run.
func percentile(sorted []int64, q float64) (int64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	beyond := n - rank
	return sorted[rank-1], beyond >= 10
}

func sortedCopy(v []int64) []int64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

// roundMedian applies f to each round's scaled latencies and returns the median of
// the results: a burst of interference spoils the rounds it hits, not the
// run.
func (ps *passStats) roundMedian(f func(lat []int64) float64) float64 {
	var vals []float64
	start := 0
	for _, end := range ps.roundEnd {
		vals = append(vals, f(ps.scaled[start:end]))
		start = end
	}
	return mlmath.Median(vals)
}

// roundPercentileMs is the median over rounds of each round's nearest-rank
// q-quantile, in ms at reference speed.
func (ps *passStats) roundPercentileMs(q float64) float64 {
	return ps.roundMedian(func(lat []int64) float64 {
		v, _ := percentile(sortedCopy(lat), q)
		return ms(v)
	})
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
func us(ns int64) float64 { return float64(ns) / 1e3 }
