package obs

import (
	"sync"
	"time"

	"ml4db/internal/mlmath"
)

// Tracer records hierarchical spans. The zero value is not useful: build
// one with NewTracer. A nil *Tracer is the "observability off" state — its
// StartSpan returns a nil *Span and costs nothing.
type Tracer struct {
	clock mlmath.Clock

	mu    sync.Mutex
	spans []*Span
}

// NewTracer returns a tracer reading time through clock (nil means the
// system clock). Inject a *mlmath.ManualClock to make traces bit-identical
// across replays.
func NewTracer(clock mlmath.Clock) *Tracer {
	return &Tracer{clock: mlmath.ClockOrSystem(clock)}
}

// Span is one timed region. IDs are 1-based in start order; a root span has
// parent ID 0. All methods are no-ops on a nil receiver.
type Span struct {
	tracer *Tracer
	id     int
	parent int
	name   string
	start  time.Time
	dur    time.Duration
	ended  bool
	attrs  []Attr
}

// AttrKind discriminates the value held by an Attr.
type AttrKind uint8

// Attr value kinds.
const (
	AttrInt AttrKind = iota
	AttrFloat
	AttrStr
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Kind  AttrKind
	Int   int64
	Float float64
	Str   string
}

// Value returns the attribute's value as an interface, for JSON encoding.
func (a Attr) Value() interface{} {
	switch a.Kind {
	case AttrFloat:
		return a.Float
	case AttrStr:
		return a.Str
	default:
		return a.Int
	}
}

// StartSpan opens a span named name under parent (nil parent = root). The
// start time is read from the tracer's clock. On a nil tracer it returns
// nil, which every Span method accepts.
func (t *Tracer) StartSpan(name string, parent *Span) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	sp := &Span{tracer: t, id: len(t.spans) + 1, name: name, start: t.clock.Now()}
	if parent != nil {
		sp.parent = parent.id
	}
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return sp
}

// End closes the span, recording its duration from the tracer's clock.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tracer.mu.Lock()
	if !s.ended {
		s.dur = s.tracer.clock.Now().Sub(s.start)
		s.ended = true
	}
	s.tracer.mu.Unlock()
}

// SetInt attaches an integer attribute and returns the span for chaining.
func (s *Span) SetInt(key string, v int64) *Span {
	if s == nil {
		return nil
	}
	s.tracer.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Kind: AttrInt, Int: v})
	s.tracer.mu.Unlock()
	return s
}

// SetFloat attaches a float attribute and returns the span for chaining.
func (s *Span) SetFloat(key string, v float64) *Span {
	if s == nil {
		return nil
	}
	s.tracer.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Kind: AttrFloat, Float: v})
	s.tracer.mu.Unlock()
	return s
}

// SetStr attaches a string attribute and returns the span for chaining.
func (s *Span) SetStr(key, v string) *Span {
	if s == nil {
		return nil
	}
	s.tracer.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Kind: AttrStr, Str: v})
	s.tracer.mu.Unlock()
	return s
}

// SpanData is an immutable snapshot of one span.
type SpanData struct {
	ID       int
	Parent   int
	Name     string
	Start    time.Time
	Duration time.Duration
	Ended    bool
	Attrs    []Attr
}

// Spans snapshots all recorded spans in start order. Safe to call while
// spans are still being recorded.
func (t *Tracer) Spans() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanData, len(t.spans))
	for i, sp := range t.spans {
		out[i] = SpanData{
			ID:       sp.id,
			Parent:   sp.parent,
			Name:     sp.name,
			Start:    sp.start,
			Duration: sp.dur,
			Ended:    sp.ended,
			Attrs:    append([]Attr(nil), sp.attrs...),
		}
	}
	return out
}

// attrMap returns the attribute list as a key→value map for JSON encoding
// (encoding/json emits map keys sorted, keeping output stable), or nil for
// a span without attributes.
func attrMap(sp SpanData) any {
	if len(sp.Attrs) == 0 {
		return nil
	}
	m := make(map[string]interface{}, len(sp.Attrs))
	for _, a := range sp.Attrs {
		m[a.Key] = a.Value()
	}
	return m
}
