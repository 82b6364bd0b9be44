package main

import "time"

// The sandbox this benchmark runs in shares its host: the same code runs up
// to 30 % slower for seconds at a time when a neighbour is busy, and 10 %
// slower or faster from one minute to the next. No amount of measuring
// inside one run averages that away, and it is wider than the regressions
// the bounds are there to catch. So every timed quantity is reported at
// reference speed: a fixed kernel is timed every blockLen, and the times
// measured between two samples are multiplied by calNominal ÷ (the mean of
// the two samples). A slow spell stretches the kernel and the queries
// alike, and cancels — not exactly, since no kernel slows by just the factor
// every workload does, but on the reference box it took the quartile spread
// of one workload's latency over ten runs from 22–30 % to 4–7 % on a bad
// day and left a quiet day's 9 % alone.
//
// The kernel must not allocate. One that also allocated rows, as the engine
// does, was tried: its own time then depends on which phase the collector
// is in when it runs, and it added more noise than it removed.

// calNominal is the kernel's time on the reference box when it is quiet.
// It only fixes the scale of the reported times.
const calNominal = 4500 * time.Microsecond

const calWords = 1 << 18 // 2 MiB: larger than L2, like the engine's working sets

var (
	calBuf  = make([]uint64, calWords)
	calSink uint64
)

// calibrate times the kernel: a sequential fill (arithmetic, store
// bandwidth) and a dependent random walk (load latency). It does not
// allocate, so it leaves the allocation counts and the collector alone.
func calibrate() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := range calBuf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		calBuf[i] = x
	}
	idx := uint64(0)
	for i := uint64(0); i < calWords; i++ {
		idx = calBuf[idx%calWords] + i
	}
	calSink += idx
	return time.Since(start)
}

// speedOf is the factor that scales a time measured between two calibration
// samples to reference speed.
func speedOf(before, after time.Duration) float64 {
	return float64(calNominal) / (float64(before+after) / 2)
}
