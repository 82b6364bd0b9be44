package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// jsonKeys returns the sorted top-level keys of a JSON object.
func jsonKeys(t *testing.T, data []byte) []string {
	t.Helper()
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(data, &obj); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestSuiteNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range suites {
		if seen[s.name] || s.name == "all" {
			t.Errorf("suite name %q is duplicated or reserved", s.name)
		}
		seen[s.name] = true
	}
}

// Every suite that publishes a report has a committed BENCH_<suite>.json at
// the repository root under the current envelope, and every BENCH_*.json there
// belongs to such a suite: a suite cannot be documented but never committed, a
// committed file cannot predate an envelope change, and a report cannot
// outlive its suite.
func TestCommittedBenchFilesMatchEnvelope(t *testing.T) {
	want, err := json.Marshal(envelope{})
	if err != nil {
		t.Fatal(err)
	}
	wantKeys := jsonKeys(t, want)
	root := filepath.Join("..", "..")
	var wantFiles []string
	for _, s := range suites {
		if s.name == "trace" { // writes only its JSONL artifacts
			continue
		}
		path := filepath.Join(root, "BENCH_"+s.name+".json")
		wantFiles = append(wantFiles, path)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("suite %s has no committed report: %v", s.name, err)
			continue
		}
		if got := jsonKeys(t, data); strings.Join(got, ",") != strings.Join(wantKeys, ",") {
			t.Errorf("BENCH_%s.json keys = %v, want %v", s.name, got, wantKeys)
		}
		var env envelope
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatal(err)
		}
		if env.Suite != s.name || env.Quick || env.GOMAXPROCS < 2 {
			t.Errorf("BENCH_%s.json: suite=%q quick=%v gomaxprocs=%d, want a full multi-core run of %q",
				s.name, env.Suite, env.Quick, env.GOMAXPROCS, s.name)
		}
	}
	committed, err := filepath.Glob(filepath.Join(root, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range committed {
		if !slices.Contains(wantFiles, f) {
			t.Errorf("%s is not the report of any registered suite: delete it with its suite", filepath.Base(f))
		}
	}
}

func TestFlagSetIsExactlySix(t *testing.T) {
	var usage bytes.Buffer
	if code := run([]string{"-h"}, &usage); code != 0 {
		t.Fatalf("-h exited %d", code)
	}
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -([a-z-]+)`).FindAllStringSubmatch(usage.String(), -1) {
		got = append(got, m[1])
	}
	sort.Strings(got)
	if want := "list,out-dir,quick,run,seed,suite"; strings.Join(got, ",") != want {
		t.Errorf("flags = %v, want %s", got, want)
	}
}

func TestUnknownSuiteExitsTwoListingNames(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-suite", "trace,nosuch", "-out-dir", t.TempDir()}, &stderr); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	for _, s := range suites {
		if !strings.Contains(stderr.String(), s.name) {
			t.Errorf("error %q does not list suite %s", stderr.String(), s.name)
		}
	}
	if !strings.Contains(stderr.String(), `"nosuch"`) {
		t.Errorf("error %q does not name the unknown suite", stderr.String())
	}
}
