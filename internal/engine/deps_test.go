package engine_test

import (
	"go/build"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ml4db/internal/engine"
	"ml4db/internal/modelsvc"
	"ml4db/internal/nn"
	"ml4db/internal/querystore"
	"ml4db/internal/sqlkit/exec"
	"ml4db/internal/storage"
)

// engineDeps is every module package that internal/engine's non-test files
// import, directly or through each other: the engine ring. The rest of the
// module (learned indexes, learned optimizers, experiments, ...) is the
// library ring, which the engine must not link. A new engine → library edge
// is a deliberate one-line change here.
var engineDeps = []string{
	"ml4db/internal/mlmath",
	"ml4db/internal/modelsvc",
	"ml4db/internal/nn",
	"ml4db/internal/obs",
	"ml4db/internal/querystore",
	"ml4db/internal/sqlkit/catalog",
	"ml4db/internal/sqlkit/exec",
	"ml4db/internal/sqlkit/expr",
	"ml4db/internal/sqlkit/optimizer",
	"ml4db/internal/sqlkit/plan",
	"ml4db/internal/sqlkit/sqlparse",
	"ml4db/internal/storage",
}

// TestEngineLinksOnlyTheEngineRing walks the non-test imports of
// internal/engine with go/build and compares the module packages it reaches
// with engineDeps.
func TestEngineLinksOnlyTheEngineRing(t *testing.T) {
	const module = "ml4db/"
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var visit func(path string)
	visit = func(path string) {
		pkg, err := build.ImportDir(filepath.Join(root, strings.TrimPrefix(path, module)), 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, imp := range pkg.Imports {
			if strings.HasPrefix(imp, module) && !seen[imp] {
				seen[imp] = true
				visit(imp)
			}
		}
	}
	visit(module + "internal/engine")

	var got []string
	for p := range seen {
		got = append(got, p)
	}
	slices.Sort(got)
	for _, p := range got {
		if !slices.Contains(engineDeps, p) {
			t.Errorf("internal/engine now links %s; add it to engineDeps only if the engine ring is meant to grow", p)
		}
	}
	for _, p := range engineDeps {
		if !seen[p] {
			t.Errorf("internal/engine no longer links %s; drop it from engineDeps", p)
		}
	}
}

// TestEngineRingOptions pins the exported fields of the option structs on
// the engine ring's query path. Every field is a knob that multiplies the
// configurations the engine's tests must cover, so a new one is a
// deliberate one-line edit here.
func TestEngineRingOptions(t *testing.T) {
	for _, c := range []struct {
		opts any
		want []string
	}{
		{engine.Options{}, []string{"Metrics", "Trace", "Store", "Pool"}},
		{querystore.Options{}, []string{"Clock", "Catalog", "Pool"}},
		{storage.PoolOptions{}, []string{"Capacity", "Scorer", "Metrics", "RecordEvictions"}},
		{exec.Options{}, []string{"Budget", "Analyze", "Span", "Pool", "Output", "Arena"}},
		{modelsvc.RolloutOptions{}, []string{"Window", "ErrFn", "Clock", "Fallback", "Metrics", "Events"}},
		{nn.FitOptions{}, []string{"Epochs", "BatchSize", "Optimizer", "RNG", "Pool", "Metrics", "MetricName"}},
	} {
		typ := reflect.TypeOf(c.opts)
		var got []string
		for i := range typ.NumField() {
			if f := typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s fields = %v, want %v", typ, got, c.want)
		}
	}
}
