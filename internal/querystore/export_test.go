package querystore

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"ml4db/internal/obs"
	"ml4db/internal/sqlkit/catalog"
)

// replayWorkload drives one fixed workload against a fresh store under a
// manual clock.
func replayWorkload(t *testing.T) *Store {
	t.Helper()
	cat := twoColCatalog(t)
	s, mc := manualStore(Options{Catalog: cat})
	s.RecordModelInstall(3)
	for i := 0; i < 3; i++ {
		s.Record(obsWithQErr(3, float64(i+1)))
		s.Record(Observation{Shape: "other", Work: int64(10 * i), Rows: int64(i), CacheHit: i > 0})
		mc.Advance(400 * time.Millisecond)
	}
	s.Flush()
	return s
}

func TestExportValidatesAndReplaysIdentically(t *testing.T) {
	var a, b bytes.Buffer
	if err := replayWorkload(t).WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := replayWorkload(t).WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("two replays exported different bytes:\n%s\nvs\n%s", a.String(), b.String())
	}
	n, err := ValidateJSONL(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatalf("validator rejected a fresh export: %v", err)
	}
	// Header + 2 statements + heat + windows + 1 model event; exact line
	// count pins the schema sections.
	if n < 5 {
		t.Errorf("validated %d lines, want at least 5", n)
	}
}

func TestValidateJSONLRejects(t *testing.T) {
	cases := []struct {
		name string
		in   string
		frag string
	}{
		{"empty", "", "no querystore header"},
		{"no header", `{"type":"statement"}`, "first line must be"},
		{"bad json", "{nope", "not valid JSON"},
		{"bad schema", `{"type":"querystore","schema":9,"statements":0,"heat":0,"windows":0,"drift":0,"models":0,"dropped":0}`, "unsupported schema"},
		{"missing field", `{"type":"querystore","schema":1,"statements":1,"heat":0,"windows":0,"drift":0,"models":0,"dropped":0}` + "\n" + `{"type":"statement","id":0}`, `missing field`},
		{"count mismatch", `{"type":"querystore","schema":1,"statements":2,"heat":0,"windows":0,"drift":0,"models":0,"dropped":0}`, "declares 2 statement"},
		{"unknown type", `{"type":"querystore","schema":1,"statements":0,"heat":0,"windows":0,"drift":0,"models":0,"dropped":0}` + "\n" + `{"type":"mystery"}`, "unknown record type"},
	}
	for _, c := range cases {
		if _, err := ValidateJSONL(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: validator accepted bad input", c.name)
		} else if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.frag)
		}
	}
}

// TestModelRingWrapsAtMaxEvents overfills the model timeline, which runs at
// the module-wide obs.MaxEvents: the export's header count and the
// sys_models view must both describe exactly the retained events, and Seq
// keeps counting across evictions.
func TestModelRingWrapsAtMaxEvents(t *testing.T) {
	s, _ := manualStore(Options{})
	for v := 1; v <= obs.MaxEvents+3; v++ {
		s.RecordModelInstall(v)
	}
	evs := s.ModelEvents()
	if len(evs) != obs.MaxEvents || evs[0].Seq != 4 || evs[len(evs)-1].Seq != obs.MaxEvents+3 {
		t.Fatalf("retained %d events, Seq %d..%d; want %d, 4..%d",
			len(evs), evs[0].Seq, evs[len(evs)-1].Seq, obs.MaxEvents, obs.MaxEvents+3)
	}
	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if n, err := ValidateJSONL(&buf); err != nil || n != 1+obs.MaxEvents {
		t.Errorf("export validated %d lines (%v), want header + %d model lines", n, err, obs.MaxEvents)
	}
	cat := catalog.NewCatalog()
	if err := RegisterViews(cat, s); err != nil {
		t.Fatal(err)
	}
	id, _ := cat.ByName(ViewModels)
	view := cat.Table(id)
	if rows := view.Virtual.VirtualRows(); view.NumRows() != obs.MaxEvents || len(rows) != obs.MaxEvents || rows[0][0] != 4 {
		t.Errorf("sys_models reports %d rows, returns %d, first seq %d; want %d, %d, 4",
			view.NumRows(), len(rows), rows[0][0], obs.MaxEvents, obs.MaxEvents)
	}
}
