package analysis

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The fixture harness: each analyzer has golden packages under
// testdata/src/. A fixture file marks every line where the analyzer must
// fire with a `// want "substring"` comment; the harness loads the packages
// through the real Loader (so fixtures are parsed and type-checked exactly
// like production code), runs the analyzer over all of them at once (so call
// edges between them resolve), applies suppressions, and requires an exact
// match between unsuppressed findings and want comments. A clean fixture
// simply contains no want comments: any diagnostic fails the test.

var wantRe = regexp.MustCompile(`//\s*want\s+"([^"]+)"`)

// sharedLoader memoizes the loader across fixtures so the standard library
// is type-checked once per test binary, not once per fixture.
var sharedLoader *Loader

func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	if sharedLoader == nil {
		l, err := NewLoader(filepath.Join("..", ".."))
		if err != nil {
			t.Fatal(err)
		}
		sharedLoader = l
	}
	return sharedLoader
}

// loadFixturePkgs loads the listed fixture packages through the shared
// loader. Fixture packages live outside the loader's walk but are loaded
// explicitly under a path that mirrors their directory, so path-scoped
// analyzers (the core-package checks) see the intended package identity.
func loadFixturePkgs(t *testing.T, rels ...string) []*Package {
	t.Helper()
	loader := fixtureLoader(t)
	var pkgs []*Package
	for _, rel := range rels {
		dir, err := filepath.Abs(filepath.Join("testdata", "src", rel))
		if err != nil {
			t.Fatal(err)
		}
		pkg, err := loader.LoadDir(dir, "ml4db/internal/analysis/testdata/src/"+rel)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", rel, err)
		}
		for _, terr := range pkg.TypeErrors {
			t.Fatalf("fixture %s has type errors: %v", rel, terr)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs
}

func runFixture(t *testing.T, a *Analyzer, rels ...string) {
	t.Helper()
	pkgs := loadFixturePkgs(t, rels...)
	wants := map[string]string{}
	for _, pkg := range pkgs {
		for key, substr := range collectWants(pkg) {
			wants[key] = substr
		}
	}
	got := map[string]string{}
	for _, f := range Analyze(pkgs, nil, []*Analyzer{a}, false) {
		if f.Suppressed {
			continue
		}
		key := fmt.Sprintf("%s:%d", filepath.Base(f.Pos.Filename), f.Pos.Line)
		got[key] = f.Message
	}

	for key, substr := range wants {
		msg, ok := got[key]
		if !ok {
			t.Errorf("%s: expected diagnostic matching %q, got none", key, substr)
			continue
		}
		if !strings.Contains(msg, substr) {
			t.Errorf("%s: diagnostic %q does not contain %q", key, msg, substr)
		}
		delete(got, key)
	}
	for key, msg := range got {
		t.Errorf("%s: unexpected diagnostic %q", key, msg)
	}
}

func collectWants(pkg *Package) map[string]string {
	wants := map[string]string{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				wants[fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)] = m[1]
			}
		}
	}
	return wants
}
