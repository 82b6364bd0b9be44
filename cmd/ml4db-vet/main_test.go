package main

import (
	"bytes"
	"strings"
	"testing"

	"ml4db/internal/analysis"
)

// -list prints one line per analyzer of analysis.All(), in its order, with
// no tier suffix.
func TestListPrintsAllAnalyzersInOrder(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr %q", code, stderr.String())
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	all := analysis.All()
	if len(lines) != len(all) || len(all) != 8 {
		t.Fatalf("-list printed %d lines for %d analyzers, want 8:\n%s", len(lines), len(all), stdout.String())
	}
	for i, a := range all {
		if name := strings.Fields(lines[i])[0]; name != a.Name {
			t.Errorf("line %d names %q, want %q", i, name, a.Name)
		}
		if strings.Contains(lines[i], "tier") {
			t.Errorf("line %d carries a tier suffix: %q", i, lines[i])
		}
	}
}

// A name that is not an analyzer — here a folded-in former one — is a usage
// error that lists the valid names.
func TestOnlyUnknownAnalyzerExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-only", "spawnreach"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	for _, a := range analysis.All() {
		if !strings.Contains(stderr.String(), a.Name) {
			t.Errorf("error %q does not list %s", stderr.String(), a.Name)
		}
	}
}

// -json over a firing fixture emits a document that passes the schema check.
func TestJSONOutputValidates(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-json", "-only", "floateq", "./internal/analysis/testdata/src/floateq/bad"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code %d, want 1 (the fixture fires); stderr %q", code, stderr.String())
	}
	if err := analysis.ValidateFindingsJSON(stdout.Bytes()); err != nil {
		t.Fatalf("-json output fails validation: %v\n%s", err, stdout.String())
	}
	if !strings.Contains(stdout.String(), `"analyzer": "floateq"`) {
		t.Errorf("no floateq finding in output:\n%s", stdout.String())
	}
}
