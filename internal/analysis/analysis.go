package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
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

	sink  *[]Diagnostic
	graph func() *CallGraph
}

// CallGraph returns the module call graph (callgraph.go). Analyze builds it
// once per call, the first time any analyzer asks, over every loaded package,
// so edges through packages outside the vetted set resolve.
func (p *Pass) CallGraph() *CallGraph { return p.graph() }

// Nodes returns the call-graph nodes declared in the pass's package, sorted
// by position.
func (p *Pass) Nodes() []*FuncNode {
	var out []*FuncNode
	for _, n := range p.CallGraph().Nodes {
		if n.Fn.Pkg() == p.Pkg {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Decl.Pos() < out[j].Decl.Pos() })
	return out
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
	"qo":           true,
}

// IsCorePackage reports whether pkgPath denotes one of the core model
// packages: an internal/ package with a path segment in the core set
// (subpackages like planrep/study are included; a cmd/ package that merely
// reuses a core name is not).
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
// under cmd/.
func IsLibraryPackage(pkgPath string) bool {
	for _, seg := range strings.Split(pkgPath, "/") {
		if seg == "cmd" {
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

// Finding is one diagnostic with its suppression outcome. Suppressed findings
// are kept (for -json output and the unused-suppression audit) but do not
// fail the vet run.
type Finding struct {
	Diagnostic
	Suppressed bool
	// Reason is the suppression's quoted justification when Suppressed.
	Reason string `json:",omitempty"`
}

// Analyze runs the analyzers over the target packages and resolves
// suppressions. all is the universe the call graph is built over and must
// include the targets (normally Loader.AllLoaded(): the targets and the
// helper packages they reach); when nil, targets is used. With
// strictSuppress, //ml4db:allow comments that suppressed nothing — among
// analyzers that actually ran — become findings themselves.
func Analyze(targets, all []*Package, analyzers []*Analyzer, strictSuppress bool) []Finding {
	var graph *CallGraph
	graphOnce := func() *CallGraph {
		if graph == nil {
			if all == nil {
				all = targets
			}
			graph = BuildCallGraph(all)
		}
		return graph
	}
	var diags []Diagnostic
	var sup suppressionSet
	for _, pkg := range targets {
		for _, a := range analyzers {
			a.Run(&Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				PkgPath:  pkg.Path,
				sink:     &diags,
				graph:    graphOnce,
			})
		}
		s := collectSuppressions(pkg.Fset, pkg.Files)
		sup.entries = append(sup.entries, s.entries...)
		sup.malformed = append(sup.malformed, s.malformed...)
	}

	findings := make([]Finding, 0, len(diags)+len(sup.malformed))
	for _, d := range diags {
		f := Finding{Diagnostic: d}
		if i, ok := sup.match(d); ok {
			sup.entries[i].used = true
			f.Suppressed = true
			f.Reason = sup.entries[i].reason
		}
		findings = append(findings, f)
	}
	for _, d := range sup.malformed {
		findings = append(findings, Finding{Diagnostic: d})
	}
	if strictSuppress {
		ran := map[string]bool{}
		for _, a := range analyzers {
			ran[a.Name] = true
		}
		for _, e := range sup.entries {
			if e.used || !ran[e.analyzer] {
				continue
			}
			findings = append(findings, Finding{Diagnostic: Diagnostic{
				Pos:      e.pos,
				Analyzer: "suppression",
				Message:  fmt.Sprintf("unused //ml4db:allow %s: it suppresses no finding; delete it or re-justify", e.analyzer),
			}})
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		return lessDiagnostic(findings[i].Diagnostic, findings[j].Diagnostic)
	})
	return findings
}

func lessDiagnostic(a, b Diagnostic) bool {
	if a.Pos.Filename != b.Pos.Filename {
		return a.Pos.Filename < b.Pos.Filename
	}
	if a.Pos.Line != b.Pos.Line {
		return a.Pos.Line < b.Pos.Line
	}
	if a.Pos.Column != b.Pos.Column {
		return a.Pos.Column < b.Pos.Column
	}
	if a.Analyzer != b.Analyzer {
		return a.Analyzer < b.Analyzer
	}
	return a.Message < b.Message
}
