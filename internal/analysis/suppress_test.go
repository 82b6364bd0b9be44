package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parseForSuppression(t *testing.T, src string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "sup.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, []*ast.File{f}
}

// A standalone allow covers its own line and the next; a trailing allow only
// its own, so the comparison on the line after it still fires. The fixture's
// want lines mark every finding that must survive.
func TestSuppressionCoversOwnAndNextLine(t *testing.T) {
	runFixture(t, FloatEqAnalyzer, "suppress")
}

func TestSuppressionRequiresReason(t *testing.T) {
	fset, files := parseForSuppression(t, `package p

//ml4db:allow nakedpanic
func a() {}
`)
	set := collectSuppressions(fset, files)
	if len(set.entries) != 0 {
		t.Fatalf("reasonless allow must not suppress, got %v", set.entries)
	}
	if len(set.malformed) != 1 || !strings.Contains(set.malformed[0].Message, "malformed") {
		t.Fatalf("want one malformed diagnostic, got %v", set.malformed)
	}
}

func TestSuppressionRejectsUnknownAnalyzer(t *testing.T) {
	fset, files := parseForSuppression(t, `package p

//ml4db:allow nosuch "reason"
func a() {}
`)
	set := collectSuppressions(fset, files)
	if len(set.entries) != 0 {
		t.Fatalf("unknown analyzer must not suppress, got %v", set.entries)
	}
	if len(set.malformed) != 1 || !strings.Contains(set.malformed[0].Message, "unknown analyzer") {
		t.Fatalf("want one unknown-analyzer diagnostic, got %v", set.malformed)
	}
}

func TestByNameRejectsUnknown(t *testing.T) {
	if _, err := ByName([]string{"determinism", "bogus"}); err == nil {
		t.Fatal("want error for unknown analyzer name")
	}
	got, err := ByName([]string{"floateq"})
	if err != nil || len(got) != 1 || got[0] != FloatEqAnalyzer {
		t.Fatalf("ByName(floateq) = %v, %v", got, err)
	}
}

func TestIsCorePackageScoping(t *testing.T) {
	cases := []struct {
		path string
		core bool
	}{
		{"ml4db/internal/nn", true},
		{"ml4db/internal/planrep/study", true},
		{"ml4db/internal/obs", true},
		{"ml4db/internal/modelsvc", true},
		{"ml4db/internal/querystore", true},
		{"ml4db/internal/autopilot", true},
		{"ml4db/internal/sqlkit/exec", true},
		{"ml4db/internal/qo", true},
		{"ml4db/internal/qo/bao", true},
		{"ml4db/learnedindex", false}, // core name outside internal/
		{"ml4db/cmd/ml4db-vet", false},
	}
	for _, c := range cases {
		if got := IsCorePackage(c.path); got != c.core {
			t.Errorf("IsCorePackage(%q) = %v, want %v", c.path, got, c.core)
		}
	}
}
