package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds named, label-free metrics. All methods are safe for
// concurrent use, and every method on a nil *Registry (observability off)
// is a no-op returning nil instruments whose methods are themselves no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the counter registered under name, creating it on first
// use. Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds on first use; later calls reuse the first
// registration's buckets. Bounds must be sorted ascending; an implicit
// overflow bucket catches everything above the last bound. Returns nil on a
// nil registry.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing integer metric: one atomic word, so
// counting costs no lock on the hot paths that count (a pool hit, a miss).
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value float metric.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set records the gauge's current value. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Value returns the last set value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Histogram is a fixed-bucket distribution metric with quantile readout.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // sorted upper bounds; counts has one extra overflow slot
	counts []int64
	count  int64
	sum    float64
	min    float64
	max    float64
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]int64, len(bs)+1)}
}

// ExpBuckets returns n exponentially spaced bucket bounds start,
// start·factor, start·factor², … — the usual shape for latencies, work
// units, and losses. Degenerate arguments (start ≤ 0, factor ≤ 1, n < 1)
// yield nil, i.e. a single overflow bucket.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		return nil
	}
	out := make([]float64, n)
	b := start
	for i := range out {
		out[i] = b
		b *= factor
	}
	return out
}

// Observe records one sample. A sample equal to a bucket's upper bound
// lands in that bucket (inclusive upper bounds). No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v, len(bounds) if none
	h.counts[i]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// Count returns the number of samples (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sample sum (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// quantileLocked estimates the q-quantile (q in [0,1], clamped) by linear
// interpolation within the covering bucket, clamped to the observed
// [min, max]. An empty histogram reports 0. It is monotone non-decreasing
// in q.
func (h *Histogram) quantileLocked(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.count)
	cum := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo := h.min
			if i > 0 && h.bounds[i-1] > lo {
				lo = h.bounds[i-1]
			}
			hi := h.max
			if i < len(h.bounds) && h.bounds[i] < hi {
				hi = h.bounds[i]
			}
			if hi < lo {
				hi = lo
			}
			frac := (rank - cum) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + frac*(hi-lo)
		}
		cum += float64(c)
	}
	return h.max
}

// histReading is one consistent copy of a histogram's state.
type histReading struct {
	bounds                       []float64
	counts                       []int64
	count                        int64
	sum, min, max, p50, p90, p99 float64
}

// snapshot copies the histogram state under its lock.
func (h *Histogram) snapshot() histReading {
	h.mu.Lock()
	defer h.mu.Unlock()
	return histReading{
		bounds: append([]float64(nil), h.bounds...), counts: append([]int64(nil), h.counts...),
		count: h.count, sum: h.sum, min: h.min, max: h.max,
		p50: h.quantileLocked(0.50), p90: h.quantileLocked(0.90), p99: h.quantileLocked(0.99),
	}
}

// point is one named metric: a live counter or gauge, or a histogram reading.
type point[V any] struct {
	name string
	v    V
}

// sortedPoints returns the map's entries in sorted-name order — the
// sanctioned deterministic map-iteration idiom.
func sortedPoints[V any](m map[string]V) []point[V] {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	out := make([]point[V], len(names))
	for i, n := range names {
		out[i] = point[V]{n, m[n]}
	}
	return out
}

// points lists every metric, each kind in sorted-name order. Instruments
// are collected under the registry lock and read after it is released.
func (r *Registry) points() ([]point[*Counter], []point[*Gauge], []point[histReading]) {
	r.mu.Lock()
	counters, gauges, live := sortedPoints(r.counters), sortedPoints(r.gauges), sortedPoints(r.hists)
	r.mu.Unlock()
	hists := make([]point[histReading], len(live))
	for i, p := range live {
		hists[i] = point[histReading]{p.name, p.v.snapshot()}
	}
	return counters, gauges, hists
}

// Summary renders all metrics as sorted human-readable lines.
func (r *Registry) Summary() string {
	if r == nil {
		return ""
	}
	counters, gauges, hists := r.points()
	var b strings.Builder
	for _, c := range counters {
		fmt.Fprintf(&b, "counter   %-36s %d\n", c.name, c.v.Value())
	}
	for _, g := range gauges {
		fmt.Fprintf(&b, "gauge     %-36s %g\n", g.name, g.v.Value())
	}
	for _, h := range hists {
		fmt.Fprintf(&b, "histogram %-36s n=%d sum=%g min=%g max=%g p50=%g p90=%g p99=%g\n",
			h.name, h.v.count, h.v.sum, h.v.min, h.v.max, h.v.p50, h.v.p90, h.v.p99)
	}
	return b.String()
}
