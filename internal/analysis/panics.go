package analysis

import (
	"go/ast"
	"go/types"
)

// NakedPanicAnalyzer flags panic calls in library packages (everything
// outside cmd/). A panic that escapes a library API takes the whole process
// down — unacceptable once this code serves traffic. Each site must either
// return an error, or carry an //ml4db:allow nakedpanic comment
// whose reason states the invariant that makes the panic unreachable except
// through a caller bug (the stdlib convention for shape-mismatch guards).
var NakedPanicAnalyzer = &Analyzer{
	Name: "nakedpanic",
	Doc:  "flag panic in library (non-cmd) code",
	Run:  runNakedPanic,
}

func runNakedPanic(pass *Pass) {
	if !IsLibraryPackage(pass.PkgPath) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || id.Name != "panic" {
				return true
			}
			if obj := pass.ObjectOf(id); obj != nil {
				if _, isBuiltin := obj.(*types.Builtin); !isBuiltin {
					return true // a local function shadowing the builtin
				}
			}
			pass.Reportf(call.Pos(), "panic in library code; return an error, or document the unreachable invariant with //ml4db:allow nakedpanic")
			return true
		})
	}
}
