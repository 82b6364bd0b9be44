package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// The JSONL schemas. Field sets are stable: cmd/ml4db-tracecheck and the
// scripts/check.sh smoke gate fail if a required field disappears.
var (
	spanSchema = NewSchema("span",
		Int("id", func(sp SpanData) int64 { return int64(sp.ID) }),
		Int("parent", func(sp SpanData) int64 { return int64(sp.Parent) }),
		JSON("name", func(sp SpanData) string { return sp.Name }),
		Int("start", func(sp SpanData) int64 { return sp.Start.UnixNano() }),
		Int("duration", func(sp SpanData) int64 { return sp.Duration.Nanoseconds() }),
		Field[SpanData]{Name: "attrs", Value: attrMap, Optional: true},
	)
	counterSchema = NewSchema("counter",
		JSON("name", func(p point[*Counter]) string { return p.name }),
		Int("value", func(p point[*Counter]) int64 { return p.v.Value() }),
	)
	gaugeSchema = NewSchema("gauge",
		JSON("name", func(p point[*Gauge]) string { return p.name }),
		JSON("value", func(p point[*Gauge]) float64 { return p.v.Value() }),
	)
	histSchema = NewSchema("histogram",
		JSON("name", func(p point[histReading]) string { return p.name }),
		Int("count", func(p point[histReading]) int64 { return p.v.count }),
		JSON("sum", func(p point[histReading]) float64 { return p.v.sum }),
		JSON("min", func(p point[histReading]) float64 { return p.v.min }),
		JSON("max", func(p point[histReading]) float64 { return p.v.max }),
		JSON("p50", func(p point[histReading]) float64 { return p.v.p50 }),
		JSON("p90", func(p point[histReading]) float64 { return p.v.p90 }),
		JSON("p99", func(p point[histReading]) float64 { return p.v.p99 }),
		JSON("bounds", func(p point[histReading]) []float64 { return p.v.bounds }),
		JSON("counts", func(p point[histReading]) []int64 { return p.v.counts }),
	)
)

// WriteJSONL writes one span per line in start order. Under a ManualClock
// the output is bit-identical across replays of the same workload.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	return spanSchema.WriteJSONL(w, t.Spans()...)
}

// WriteJSONL writes one metric snapshot per line: counters, then gauges,
// then histograms, each block in sorted-name order.
func (r *Registry) WriteJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	counters, gauges, hists := r.points()
	return errors.Join(
		counterSchema.WriteJSONL(w, counters...),
		gaugeSchema.WriteJSONL(w, gauges...),
		histSchema.WriteJSONL(w, hists...),
	)
}

// LineSpec is what the validator checks of one record type; Schema.Line
// derives it.
type LineSpec struct {
	Type     string
	Required []string // keys every line of this type must carry
	// CountKey, when not "", is the header field declaring how many lines
	// of this type the file holds.
	CountKey string
	// Check, when non-nil, validates the decoded line beyond key presence.
	Check func(m map[string]json.RawMessage) error
}

// Checked returns the spec with an extra per-line check.
func (l LineSpec) Checked(check func(m map[string]json.RawMessage) error) LineSpec {
	l.Check = check
	return l
}

// Format describes one kind of JSONL file: the record types its lines may
// carry. With Header set, Lines[0] is a header record that must be the
// first line and appear only there.
type Format struct {
	Name   string
	Header bool
	Lines  []LineSpec
}

// TraceFormat is a span trace (Tracer.WriteJSONL); MetricsFormat a metrics
// snapshot (Registry.WriteJSONL).
var (
	TraceFormat   = Format{Name: "trace", Lines: []LineSpec{spanSchema.Line("").Checked(checkSpan)}}
	MetricsFormat = Format{Name: "metrics", Lines: []LineSpec{
		counterSchema.Line(""), gaugeSchema.Line(""), histSchema.Line(""),
	}}
)

// checkSpan requires well-typed span fields, a name, and IDs in start order
// (a parent starts before its children).
func checkSpan(m map[string]json.RawMessage) error {
	var id, parent, start, duration int64
	var name string
	for _, f := range []struct {
		key string
		dst any
	}{{"id", &id}, {"parent", &parent}, {"name", &name}, {"start", &start}, {"duration", &duration}} {
		if err := json.Unmarshal(m[f.key], f.dst); err != nil {
			return fmt.Errorf("span field %q has the wrong type: %v", f.key, err)
		}
	}
	if name == "" {
		return fmt.Errorf("span has empty name")
	}
	if id < 1 || parent < 0 || parent >= id {
		return fmt.Errorf("span id/parent out of order (id=%d parent=%d)", id, parent)
	}
	return nil
}

// line returns the format's spec for a record type, or nil.
func (f *Format) line(typ string) *LineSpec {
	for i := range f.Lines {
		if f.Lines[i].Type == typ {
			return &f.Lines[i]
		}
	}
	return nil
}

// starts reports whether a file of this format can begin with a typ record.
func (f *Format) starts(typ string) bool {
	if f.Header {
		return typ == f.Lines[0].Type
	}
	return f.line(typ) != nil
}

// Validate checks r against the format and returns the number of valid lines.
func (f Format) Validate(r io.Reader) (int, error) {
	_, n, err := ValidateJSONL(r, f)
	return n, err
}

// ValidateJSONL is the one JSONL checker. The first record's type selects
// among formats (a header format by its header, any other by a line type);
// every non-empty line must then be valid JSON of a record type the format
// allows, carrying that type's required keys and passing its Check, and a
// header's declared section counts must match the lines that follow. It
// returns the selected format's name and the number of validated lines. An
// empty input is valid only for a single header-less candidate format.
func ValidateJSONL(r io.Reader, formats ...Format) (string, int, error) {
	var f *Format
	if len(formats) == 1 {
		f = &formats[0]
	}
	var header map[string]json.RawMessage
	counts := map[string]int{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	n, lineNo := 0, 0
	for sc.Scan() {
		lineNo++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			return "", n, fmt.Errorf("line %d: not valid JSON: %v", lineNo, err)
		}
		var typ string
		if err := json.Unmarshal(m["type"], &typ); err != nil {
			return "", n, fmt.Errorf("line %d: missing type", lineNo)
		}
		for i := 0; f == nil && i < len(formats); i++ {
			if formats[i].starts(typ) {
				f = &formats[i]
			}
		}
		if f == nil {
			return "", n, fmt.Errorf("line %d: no known format starts with a %q record", lineNo, typ)
		}
		spec := f.line(typ)
		isHeader := f.Header && typ == f.Lines[0].Type
		if f.Header && n == 0 && !isHeader {
			return f.Name, n, fmt.Errorf("line %d: first line must be the %s header, got type %q", lineNo, f.Lines[0].Type, typ)
		}
		if spec == nil || (isHeader && n > 0) {
			return f.Name, n, fmt.Errorf("line %d: unknown record type %q in a %s file", lineNo, typ, f.Name)
		}
		for _, key := range spec.Required {
			if _, ok := m[key]; !ok {
				return f.Name, n, fmt.Errorf("line %d: %s record missing field %q", lineNo, typ, key)
			}
		}
		if spec.Check != nil {
			if err := spec.Check(m); err != nil {
				return f.Name, n, fmt.Errorf("line %d: %v", lineNo, err)
			}
		}
		if isHeader {
			header = m
		}
		counts[typ]++
		n++
	}
	if err := sc.Err(); err != nil {
		return "", n, err
	}
	if f == nil {
		return "", 0, fmt.Errorf("empty file: no record to select a format")
	}
	if f.Header && n == 0 {
		return f.Name, 0, fmt.Errorf("empty export: no %s header", f.Lines[0].Type)
	}
	for _, l := range f.Lines {
		if l.CountKey == "" {
			continue
		}
		var want int
		if err := json.Unmarshal(header[l.CountKey], &want); err != nil {
			return f.Name, n, fmt.Errorf("header field %q is not a count: %v", l.CountKey, err)
		}
		if counts[l.Type] != want {
			return f.Name, n, fmt.Errorf("header declares %d %s records, found %d", want, l.Type, counts[l.Type])
		}
	}
	return f.Name, n, nil
}

// ValidateTraceJSONL checks a span trace file: every line must parse as
// JSON and carry the stable span schema (type=span with id, parent, name,
// start, duration). It returns the number of validated spans.
func ValidateTraceJSONL(r io.Reader) (int, error) { return TraceFormat.Validate(r) }

// ValidateMetricsJSONL checks a metrics snapshot file: every line must be a
// counter, gauge, or histogram with its required fields. It returns the
// number of validated metrics.
func ValidateMetricsJSONL(r io.Reader) (int, error) { return MetricsFormat.Validate(r) }
