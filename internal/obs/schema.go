package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"strconv"
)

// Field is one field of a record schema. A field can appear in the record's
// JSONL line (Name/Value), in its sys_* view (Col/Int), or in both; the
// constructors below cover the usual pairings.
type Field[T any] struct {
	// Name is the JSON key; "" keeps the field out of the JSONL line.
	Name string
	// Value is the JSON value, encoded by encoding/json's rules.
	Value func(T) any
	// Optional fields are omitted from a line whose Value is nil, and
	// validators do not require them.
	Optional bool
	// Col is the sys_* column name; "" keeps the field out of the view.
	Col string
	// Int is the column value (views speak int64).
	Int func(T) int64
}

// Int declares an integer field: the same name and value in JSON and view.
func Int[T any](name string, v func(T) int64) Field[T] {
	return Field[T]{Name: name, Value: func(r T) any { return v(r) }, Col: name, Int: v}
}

// Enum declares a coded field: its String() in JSON, its integer code in
// the view.
func Enum[T any, E interface {
	~int
	String() string
}](name string, v func(T) E) Field[T] {
	return Field[T]{
		Name: name, Value: func(r T) any { return v(r).String() },
		Col: name, Int: func(r T) int64 { return int64(v(r)) },
	}
}

// Milli declares a fractional field: the float in JSON, and a name_milli
// column holding it ×1000, rounded half away from zero (qerr_mean_milli =
// 2500 means 2.5).
func Milli[T any](name string, v func(T) float64) Field[T] {
	f := JSON(name, v)
	f.Col, f.Int = name+"_milli", func(r T) int64 { return int64(math.Round(v(r) * 1000)) }
	return f
}

// Round declares a large-valued float field: the float in JSON, and a
// same-named column rounded to whole units.
func Round[T any](name string, v func(T) float64) Field[T] {
	f := JSON(name, v)
	f.Col, f.Int = name, func(r T) int64 { return int64(math.Round(v(r))) }
	return f
}

// JSON declares a field that only the JSONL line carries (strings, arrays).
func JSON[T, V any](name string, v func(T) V) Field[T] {
	return Field[T]{Name: name, Value: func(r T) any { return v(r) }}
}

// List declares a JSON-only array of nested objects laid out by elem (whose
// Type is normally "", so the elements carry no type tag).
func List[T, E any](name string, v func(T) []E, elem Schema[E]) Field[T] {
	return JSON(name, func(r T) listValue[E] { return listValue[E]{elem, v(r)} })
}

type listValue[E any] struct {
	elem  Schema[E]
	items []E
}

// MarshalJSON implements json.Marshaler; an empty list encodes as [].
func (l listValue[E]) MarshalJSON() ([]byte, error) {
	buf := []byte{'['}
	for i, it := range l.items {
		if i > 0 {
			buf = append(buf, ',')
		}
		var err error
		if buf, err = l.elem.AppendJSON(buf, it); err != nil {
			return nil, err
		}
	}
	return append(buf, ']'), nil
}

// As renames the field's view column.
func (f Field[T]) As(col string) Field[T] {
	f.Col = col
	return f
}

// ViewOnly keeps the field out of the JSONL line.
func (f Field[T]) ViewOnly() Field[T] {
	f.Name, f.Value = "", nil
	return f
}

// Schema is the one declaration of a telemetry record type: its type tag
// and its ordered fields. The JSONL line, the validator's required keys and
// the sys_* view's columns and rows are all projections of Fields, so a
// field added here reaches every one of them or none.
type Schema[T any] struct {
	Type   string // the line's "type" value; "" writes no type key
	Fields []Field[T]
}

// NewSchema declares a record type.
func NewSchema[T any](typ string, fields ...Field[T]) Schema[T] {
	return Schema[T]{Type: typ, Fields: fields}
}

// AppendJSON appends rec's JSON object to buf: the type tag, then every
// JSON field in declaration order, each value encoded by encoding/json.
func (s Schema[T]) AppendJSON(buf []byte, rec T) ([]byte, error) {
	buf = append(buf, '{')
	sep := s.Type != ""
	if sep {
		buf = strconv.AppendQuote(append(buf, `"type":`...), s.Type)
	}
	for _, f := range s.Fields {
		if f.Value == nil {
			continue
		}
		v := f.Value(rec)
		if v == nil && f.Optional {
			continue
		}
		val, err := json.Marshal(v)
		if err != nil {
			return buf, err
		}
		if sep {
			buf = append(buf, ',')
		}
		sep = true
		buf = append(strconv.AppendQuote(buf, f.Name), ':')
		buf = append(buf, val...)
	}
	return append(buf, '}'), nil
}

// WriteJSONL writes one line per record, in order.
func (s Schema[T]) WriteJSONL(w io.Writer, recs ...T) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for _, rec := range recs {
		var err error
		if line, err = s.AppendJSON(line[:0], rec); err != nil {
			return err
		}
		if _, err := bw.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Line returns what a validator needs to know of the schema: the type tag
// and the keys every line must carry. countKey, when not "", names the
// header field that declares how many lines of this type the file holds.
func (s Schema[T]) Line(countKey string) LineSpec {
	spec := LineSpec{Type: s.Type, CountKey: countKey}
	for _, f := range s.Fields {
		if f.Value != nil && !f.Optional {
			spec.Required = append(spec.Required, f.Name)
		}
	}
	return spec
}

// Columns returns the view's column names in declaration order.
func (s Schema[T]) Columns() []string {
	var cols []string
	for _, f := range s.Fields {
		if f.Col != "" {
			cols = append(cols, f.Col)
		}
	}
	return cols
}

// Row returns rec's view row, one value per column.
func (s Schema[T]) Row(rec T) []int64 {
	row := make([]int64, 0, len(s.Fields))
	for _, f := range s.Fields {
		if f.Col != "" {
			row = append(row, f.Int(rec))
		}
	}
	return row
}

// View serves records through their schema's column projection. It
// satisfies catalog.VirtualSource (obs sits below the catalog, so the
// interface is matched structurally).
type View[T any] struct {
	schema Schema[T]
	n      func() int
	recs   func() []T
}

// View adapts a record source to a virtual table: n is the current record
// count, recs a snapshot of the records.
func (s Schema[T]) View(n func() int, recs func() []T) View[T] {
	return View[T]{schema: s, n: n, recs: recs}
}

// Columns returns the view's column names.
func (v View[T]) Columns() []string { return v.schema.Columns() }

// VirtualNumRows returns the current row count without copying records.
func (v View[T]) VirtualNumRows() int { return v.n() }

// VirtualRows materializes one fresh row per record.
func (v View[T]) VirtualRows() [][]int64 {
	recs := v.recs()
	rows := make([][]int64, len(recs))
	for i, rec := range recs {
		rows[i] = v.schema.Row(rec)
	}
	return rows
}
