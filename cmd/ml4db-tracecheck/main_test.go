package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ml4db/internal/autopilot"
	"ml4db/internal/mlmath"
	"ml4db/internal/obs"
	"ml4db/internal/querystore"
)

// writeFile writes what write produces to dir/name and returns the path.
func writeFile(t *testing.T, dir, name string, write func(io.Writer) error) string {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// formats is every telemetry format, in the order the command offers them.
var formats = []obs.Format{obs.TraceFormat, obs.MetricsFormat, querystore.ExportFormat, autopilot.LedgerFormat}

// export is one writer's output and the format it must validate as.
type export struct {
	file, format string
	data         []byte
}

// exports renders one file per telemetry writer: a span trace, a metrics
// snapshot and a querystore export written here, plus the full-size
// querystore export and the tuning ledger whose bytes the engine's and
// autopilot's golden tests pin (a real ledger needs a tuned engine).
func exports(tb testing.TB) []export {
	tb.Helper()
	render := func(write func(io.Writer) error) []byte {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	golden := func(pkg, name string) []byte {
		data, err := os.ReadFile(filepath.Join("..", "..", "internal", pkg, "testdata", name))
		if err != nil {
			tb.Fatal(err)
		}
		return data
	}
	tracer := obs.NewTracer(&mlmath.ManualClock{})
	root := tracer.StartSpan("query", nil)
	tracer.StartSpan("scan", root).End()
	root.End()
	reg := obs.NewRegistry()
	reg.Counter("exec.queries").Inc()
	reg.Gauge("modelsvc.rollout.version").Set(2)
	reg.Histogram("exec.work", obs.ExpBuckets(1, 4, 4)).Observe(12)
	store := querystore.New(querystore.Options{Clock: &mlmath.ManualClock{}})
	store.RecordModelInstall(1)
	return []export{
		{"spans.jsonl", obs.TraceFormat.Name, render(tracer.WriteJSONL)},
		{"metrics.jsonl", obs.MetricsFormat.Name, render(reg.WriteJSONL)},
		{"querystore.jsonl", querystore.ExportFormat.Name, render(store.WriteJSONL)},
		{"querystore_full.jsonl", querystore.ExportFormat.Name, golden("engine", "querystore.golden.jsonl")},
		{"tuning.jsonl", autopilot.LedgerFormat.Name, golden("autopilot", "tuning.golden.jsonl")},
	}
}

// Each telemetry format is recognised from its first record and reported
// with its line count.
func TestEveryFormatIsRecognised(t *testing.T) {
	dir := t.TempDir()
	var args, want []string
	for _, e := range exports(t) {
		path := writeFile(t, dir, e.file, func(w io.Writer) error {
			_, err := w.Write(e.data)
			return err
		})
		args = append(args, path)
		want = append(want, fmt.Sprintf("%s: %d valid %s lines", path, bytes.Count(e.data, []byte("\n")), e.format))
	}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr %q", code, stderr.String())
	}
	if got := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n"); !slices.Equal(got, want) {
		t.Fatalf("printed\n%s\nwant\n%s", stdout.String(), strings.Join(want, "\n"))
	}
}

// An empty file, a record type its format does not allow and a missing file
// each exit 1 naming the file; no argument at all is a usage error.
func TestInvalidInputExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		return writeFile(t, dir, name, func(w io.Writer) error {
			_, err := io.WriteString(w, content)
			return err
		})
	}
	for _, c := range []struct {
		name string
		path string
		frag string
	}{
		{"empty", write("empty.jsonl", ""), "empty file"},
		{"unknown record type", write("mixed.jsonl", `{"type":"counter","name":"c","value":1}`+"\n"+`{"type":"mystery"}`+"\n"), "unknown record type"},
		{"missing file", filepath.Join(dir, "absent.jsonl"), "no such file"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{c.path}, &stdout, &stderr); code != 1 {
			t.Errorf("%s: exit code %d, want 1", c.name, code)
		}
		if msg := stderr.String(); !strings.Contains(msg, c.path) || !strings.Contains(msg, c.frag) {
			t.Errorf("%s: error %q does not name the file and %q", c.name, msg, c.frag)
		}
	}

	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), "usage") {
		t.Errorf("no arguments: exit code %d, stderr %q; want 2 and a usage line", code, stderr.String())
	}
}

// FuzzValidateJSONL feeds the validator arbitrary bytes over all four
// formats: no input panics it, and a file it accepts as one format, that
// format alone accepts too. The seeds are the writers' own outputs: each
// must validate as its format, and stop validating when any one line loses
// any one of its required keys.
func FuzzValidateJSONL(f *testing.F) {
	for _, e := range exports(f) {
		format := formatNamed(e.format)
		if name, n, err := obs.ValidateJSONL(bytes.NewReader(e.data), formats...); err != nil || name != e.format {
			f.Fatalf("%s: validated as %q (%v), want a valid %s file", e.file, name, err, e.format)
		} else {
			requireEveryKey(f, e.file, format, bytes.Split(e.data, []byte("\n")), n)
		}
		f.Add(e.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		name, n, err := obs.ValidateJSONL(bytes.NewReader(data), formats...)
		if err != nil {
			return
		}
		if alone, err := formatNamed(name).Validate(bytes.NewReader(data)); err != nil || alone != n {
			t.Fatalf("valid as %s with %d lines, but alone that format reads %d lines (%v)", name, n, alone, err)
		}
	})
}

// formatNamed returns the format of that name.
func formatNamed(name string) obs.Format {
	return formats[slices.IndexFunc(formats, func(f obs.Format) bool { return f.Name == name })]
}

// requireEveryKey deletes each required key from each of a valid file's n
// lines in turn and requires the validator to reject every such file.
func requireEveryKey(tb testing.TB, file string, format obs.Format, lines [][]byte, n int) {
	tb.Helper()
	checked := 0
	for i, line := range lines {
		if len(line) == 0 {
			continue
		}
		var m map[string]json.RawMessage
		var typ string
		if json.Unmarshal(line, &m) != nil || json.Unmarshal(m["type"], &typ) != nil {
			tb.Fatalf("%s line %d does not decode: %q", file, i+1, line)
		}
		spec := format.Lines[slices.IndexFunc(format.Lines, func(l obs.LineSpec) bool { return l.Type == typ })]
		for _, key := range spec.Required {
			cut := maps.Clone(m)
			delete(cut, key)
			edited, err := json.Marshal(cut)
			if err != nil {
				tb.Fatal(err)
			}
			mutant := slices.Clone(lines)
			mutant[i] = edited
			if _, _, err := obs.ValidateJSONL(bytes.NewReader(bytes.Join(mutant, []byte("\n"))), formats...); err == nil {
				tb.Fatalf("%s line %d without its required key %q still validates", file, i+1, key)
			}
		}
		checked++
	}
	if checked != n {
		tb.Fatalf("%s: checked %d lines, the validator read %d", file, checked, n)
	}
}
