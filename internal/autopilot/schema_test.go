package autopilot_test

import (
	"bytes"
	"encoding/json"
	"io"
	"slices"
	"sort"
	"testing"
	"time"

	"ml4db/internal/autopilot"
	"ml4db/internal/obs"
	"ml4db/internal/querystore"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/plan"
)

// TestEveryExportedKeyIsRequired is the schema-agreement property: for a
// fresh export of every telemetry record type, the unmodified file passes
// its validator and deleting any single key from any line makes the
// validator reject it — so a field a writer emits cannot be missing from
// the validator, whichever package declares the record. It lives here
// because autopilot sits on top of the telemetry stack: one rig produces
// every record type.
func TestEveryExportedKeyIsRequired(t *testing.T) {
	r := newRig(t, skewedTable(t, 3, 2000), autopilot.Options{
		Interval: time.Second, MinWinFrac: 0.01, BuildCostWeight: -1, VerifyWindows: 1,
	})
	q := plan.NewQuery(0)
	q.AddFilter(0, expr.Pred{Col: 1, Op: expr.BETWEEN, Lo: 100, Hi: 119})
	r.runN(t, q, 6, 100*time.Millisecond)
	if _, err := r.ap.Tick(); err != nil {
		t.Fatal(err)
	}
	r.store.RecordModelInstall(1)
	// Six clean windows, then three of estimator fallbacks: the fallback-rate
	// monitor fires a drift event.
	for w := 0; w < 9; w++ {
		r.mc.Advance(time.Second)
		r.store.Record(querystore.Observation{Shape: "fallback-probe", Fallback: w >= 6})
	}
	r.store.Flush()

	tracer, reg := obs.NewTracer(r.mc), obs.NewRegistry()
	root := tracer.StartSpan("query", nil)
	tracer.StartSpan("scan", root).SetInt("rows", 20).End()
	root.End()
	reg.Counter("exec.queries").Inc()
	reg.Gauge("pool.fill").Set(0.5)
	reg.Histogram("exec.work", obs.ExpBuckets(1, 4, 4)).Observe(12)

	var types []string
	for _, export := range []struct {
		format   obs.Format
		write    func(io.Writer) error
		optional string // a key the format documents as omissible
	}{
		{obs.TraceFormat, tracer.WriteJSONL, "attrs"},
		{obs.MetricsFormat, reg.WriteJSONL, ""},
		{querystore.ExportFormat, r.store.WriteJSONL, ""},
		{autopilot.LedgerFormat, r.ap.WriteEventsJSONL, ""},
	} {
		var buf bytes.Buffer
		if err := export.write(&buf); err != nil {
			t.Fatal(err)
		}
		name, _, err := obs.ValidateJSONL(bytes.NewReader(buf.Bytes()),
			obs.TraceFormat, obs.MetricsFormat, querystore.ExportFormat, autopilot.LedgerFormat)
		if err != nil || name != export.format.Name {
			t.Fatalf("fresh %s export dispatched to %q: %v\n%s", export.format.Name, name, err, buf.String())
		}
		lines := bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n"))
		for i, line := range lines {
			var rec map[string]json.RawMessage
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatal(err)
			}
			var typ string
			if err := json.Unmarshal(rec["type"], &typ); err != nil {
				t.Fatal(err)
			}
			types = append(types, typ)
			for key := range rec {
				if key == export.optional {
					continue
				}
				pruned := map[string]json.RawMessage{}
				for k, v := range rec {
					if k != key {
						pruned[k] = v
					}
				}
				mutated := slices.Clone(lines)
				if mutated[i], err = json.Marshal(pruned); err != nil {
					t.Fatal(err)
				}
				if _, err := export.format.Validate(bytes.NewReader(bytes.Join(mutated, []byte("\n")))); err == nil {
					t.Errorf("%s line %d (%s): validator accepted the line without %q", export.format.Name, i+1, typ, key)
				}
			}
		}
	}
	sort.Strings(types)
	want := []string{"counter", "drift", "gauge", "heat", "histogram", "model", "querystore", "span", "statement", "tuning", "window"}
	if got := slices.Compact(types); !slices.Equal(got, want) {
		t.Errorf("exports covered record types %v, want every type %v", got, want)
	}
}
