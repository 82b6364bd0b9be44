// Command ml4db-vet runs the project's static-analysis suite
// (internal/analysis) over the module: determinism (directly and through the
// module call graph), unchecked errors, float equality, naked panics,
// unguarded numerics, lock discipline, span/file leaks and error-comparison
// hygiene (copies of sync primitives are go vet's copylocks). It prints
// file:line:col diagnostics and exits non-zero when any finding survives
// //ml4db:allow suppression — making it suitable as a CI gate:
//
//	go run ./cmd/ml4db-vet -strict-suppress ./...
//
// -strict-suppress additionally fails on //ml4db:allow comments that no
// longer suppress anything (among the analyzers that ran). -json emits the
// full finding list, suppressed entries included, as a JSON array on stdout
// (schema: internal/analysis.JSONFinding).
package main

import (
	"errors"
	"flag"
	"fmt"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"

	"ml4db/internal/analysis"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments and output streams injected; it returns the
// exit code (2 for a usage or load error, 1 for a surviving finding).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ml4db-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	jsonOut := fs.Bool("json", false, "emit findings (suppressed included) as JSON on stdout")
	strict := fs.Bool("strict-suppress", false, "fail on //ml4db:allow comments that suppress nothing")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: ml4db-vet [-list] [-only a,b] [-json] [-strict-suppress] [patterns...]\n")
		fmt.Fprintf(stderr, "patterns default to ./... relative to the module root\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := analysis.All()
	if *only != "" {
		var err error
		if analyzers, err = analysis.ByName(strings.Split(*only, ",")); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}

	modRoot, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	loader, err := analysis.NewLoader(modRoot)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := loader.Load(patterns)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	var findings []analysis.Finding
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			pos := token.Position{Filename: pkg.Path, Line: 1}
			var te types.Error
			if errors.As(terr, &te) && te.Fset != nil {
				pos = te.Fset.Position(te.Pos)
			}
			findings = append(findings, analysis.Finding{Diagnostic: analysis.Diagnostic{
				Pos:      pos,
				Analyzer: "typecheck",
				Message:  fmt.Sprintf("%s: %v", pkg.Path, terr),
			}})
		}
	}
	// The call graph is built over everything the loader saw — targets plus
	// their module-internal dependencies — so transitive edges resolve even
	// when vetting a subset.
	findings = append(findings, analysis.Analyze(pkgs, loader.AllLoaded(), analyzers, *strict)...)
	for i := range findings {
		findings[i].Pos.Filename = relPath(modRoot, findings[i].Pos.Filename)
	}

	if *jsonOut {
		if err := analysis.WriteFindingsJSON(stdout, findings); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	failing := 0
	for _, f := range findings {
		if f.Suppressed {
			continue
		}
		failing++
		if !*jsonOut {
			if f.Analyzer == "typecheck" {
				fmt.Fprintf(stdout, "[typecheck] %s\n", f.Message)
			} else {
				fmt.Fprintln(stdout, f.Diagnostic)
			}
		}
	}
	if failing > 0 {
		fmt.Fprintf(stderr, "ml4db-vet: %d finding(s) in %d package(s)\n", failing, len(pkgs))
		return 1
	}
	fmt.Fprintf(stderr, "ml4db-vet: clean (%d packages, %d analyzers)\n", len(pkgs), len(analyzers))
	return 0
}

// findModuleRoot walks up from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("ml4db-vet: no go.mod found above working directory")
		}
		dir = parent
	}
}

func relPath(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}
