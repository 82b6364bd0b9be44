package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
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

// ledgerLine is one tuning record carrying every key LedgerFormat requires;
// a real ledger needs a tuned engine, and only the field set is checked.
func ledgerLine(w io.Writer) error {
	spec := autopilot.LedgerFormat.Lines[0]
	rec := map[string]any{}
	for _, key := range spec.Required {
		rec[key] = 0
	}
	rec["type"] = spec.Type
	return json.NewEncoder(w).Encode(rec)
}

// Each telemetry format is recognised from its first record and reported
// with its line count.
func TestEveryFormatIsRecognised(t *testing.T) {
	dir := t.TempDir()
	tracer := obs.NewTracer(&mlmath.ManualClock{})
	root := tracer.StartSpan("query", nil)
	tracer.StartSpan("scan", root).End()
	root.End()
	reg := obs.NewRegistry()
	reg.Counter("exec.queries").Inc()
	reg.Histogram("exec.work", obs.ExpBuckets(1, 4, 4)).Observe(12)
	store := querystore.New(querystore.Options{Clock: &mlmath.ManualClock{}})
	store.RecordModelInstall(1)

	files := []struct {
		path, want string
	}{
		{writeFile(t, dir, "spans.jsonl", tracer.WriteJSONL), "2 valid " + obs.TraceFormat.Name + " lines"},
		{writeFile(t, dir, "metrics.jsonl", reg.WriteJSONL), "2 valid " + obs.MetricsFormat.Name + " lines"},
		{writeFile(t, dir, "querystore.jsonl", store.WriteJSONL), "2 valid " + querystore.ExportFormat.Name + " lines"},
		{writeFile(t, dir, "tuning.jsonl", ledgerLine), "1 valid " + autopilot.LedgerFormat.Name + " lines"},
	}
	var args []string
	for _, f := range files {
		args = append(args, f.path)
	}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr %q", code, stderr.String())
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	if len(lines) != len(files) {
		t.Fatalf("printed %d lines for %d files:\n%s", len(lines), len(files), stdout.String())
	}
	for i, f := range files {
		if want := f.path + ": " + f.want; lines[i] != want {
			t.Errorf("line %d = %q, want %q", i, lines[i], want)
		}
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
