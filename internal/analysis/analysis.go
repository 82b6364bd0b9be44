package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String formats the diagnostic the way cmd/ml4db-vet prints it.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzer is one named check. Run inspects the package held by the Pass and
// reports findings through Pass.Reportf.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// PkgPath is the import path the package was loaded under.
	PkgPath string

	sink *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.sink = append(*p.sink, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// ObjectOf resolves an identifier to its object, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Info.ObjectOf(id) }

// IsPkgFunc reports whether call invokes the package-level function
// pkgPath.name (e.g. "time".Now).
func (p *Pass) IsPkgFunc(call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := p.ObjectOf(sel.Sel)
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// corePkgSegments names the packages that hold model state or numerical
// substrate, and the ones that decide every plan (parse, rewrite, estimate,
// enumerate, advise): code where nondeterminism or numerical sloppiness
// silently invalidates experiments.
var corePkgSegments = map[string]bool{
	"nn":           true,
	"mlmath":       true,
	"tree":         true,
	"learnedindex": true,
	"cardest":      true,
	"planrep":      true,
	"obs":          true,
	"modelsvc":     true,
	"engine":       true,
	"exec":         true,
	"storage":      true,
	"querystore":   true,
	"autopilot":    true,
	"plan":         true,
	"optimizer":    true,
	"sqlparse":     true,
	"catalog":      true,
	"views":        true,
	"advisor":      true,
}

// IsCorePackage reports whether pkgPath denotes one of the core model
// packages: an internal/ package with a path segment in the core set
// (subpackages like planrep/study are included; examples/ and cmd/ that
// merely reuse a core name are not).
func IsCorePackage(pkgPath string) bool {
	segs := strings.Split(pkgPath, "/")
	internal := false
	core := false
	for _, seg := range segs {
		if seg == "internal" {
			internal = true
		}
		if corePkgSegments[seg] {
			core = true
		}
	}
	return internal && core
}

// IsLibraryPackage reports whether pkgPath is library code: not a command
// under cmd/ and not an example under examples/.
func IsLibraryPackage(pkgPath string) bool {
	for _, seg := range strings.Split(pkgPath, "/") {
		if seg == "cmd" || seg == "examples" {
			return false
		}
	}
	return true
}

// All returns the full analyzer suite in deterministic order.
func All() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		UncheckedErrAnalyzer,
		FloatEqAnalyzer,
		NakedPanicAnalyzer,
		NumGuardAnalyzer,
		MutexCopyAnalyzer,
		LockCheckAnalyzer,
		SpanEndAnalyzer,
		ErrCmpAnalyzer,
	}
}

// ByName resolves analyzer names (comma-tolerant callers split first).
// Unknown names return an error listing valid ones.
func ByName(names []string) ([]*Analyzer, error) {
	index := map[string]*Analyzer{}
	valid := make([]string, 0, len(All()))
	for _, a := range All() {
		index[a.Name] = a
		valid = append(valid, a.Name)
	}
	out := make([]*Analyzer, 0, len(names))
	for _, n := range names {
		a, ok := index[n]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown analyzer %q (valid: %s)", n, strings.Join(valid, ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// RunPackage runs package-tier analyzers over one loaded package, applies
// //ml4db:allow suppressions, and returns the surviving diagnostics sorted
// by position. Module-tier analyzers and suppression auditing go through
// Analyze (module.go).
func RunPackage(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	findings := Analyze([]*Package{pkg}, nil, analyzers, nil, false)
	diags := make([]Diagnostic, 0, len(findings))
	for _, f := range findings {
		if f.Suppressed {
			continue
		}
		diags = append(diags, f.Diagnostic)
	}
	return diags
}
