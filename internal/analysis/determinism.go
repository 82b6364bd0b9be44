package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// DeterminismAnalyzer enforces the repository's reproducibility contract in
// the core model packages (nn, mlmath, tree, learnedindex, cardest,
// planrep, obs, ...): the same seed must always yield the same model — and,
// for obs, the same clock injection must always yield the same trace. Four
// ambient sources of nondeterminism are forbidden there:
//
//   - math/rand (and math/rand/v2): use an injected *mlmath.RNG instead, so
//     every random draw flows from the experiment seed;
//   - time.Now / time.Since / time.Until: use an injected mlmath.Clock, so
//     wall-clock reads are replayable;
//   - slices built by appending inside a range over a map: Go randomizes map
//     iteration order, so the slice's order differs run to run. Sorting the
//     slice afterwards (any sort.* or slices.Sort* call in the same
//     function) makes the order well-defined and silences the check;
//   - go statements: ad-hoc goroutines race on scheduling order. The one
//     sanctioned concurrency primitive is mlmath.Pool, whose contiguous
//     pure-function sharding and fixed-order reduction keep parallel kernels
//     reproducible.
//
// The rule is transitive: core code must not *reach* a wall-clock read, a
// global-RNG draw or a go statement through any chain of calls either. A fact
// written directly in a core package is reported at the fact itself; a fact in
// non-core code is reported once, at the boundary edge where a core function
// calls the non-core function that reaches it, with the call chain rendered.
// That keeps one root cause at one position instead of cascading a finding
// onto every transitive caller.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc:  "forbid math/rand, the wall clock, goroutine launches, and map-order-dependent slice building in core model packages, directly or through calls",
	Run:  runDeterminism,
}

// ambientFact is one forbidden operation in a function's own body.
type ambientFact struct {
	taintFact
	// direct is the finding when the fact sits in a core package, or "" when
	// another check reports it there (the global RNG, at its import).
	direct string
}

// determinismRules is the one table of forbidden facts, one row per family.
// A family is sanctioned in mlmath functions whose receiver or result type
// mentions its marker — the one reviewed place the capability enters — and
// taints on its own, so a rendered chain always ends at a fact of its family.
var determinismRules = []struct {
	sanction string
	facts    func(*FuncNode) []ambientFact
	// reach completes "core function %s reaches " with the rendered chain.
	reach string
}{
	{"Pool", spawnFacts, "a goroutine launch outside mlmath.Pool: %s; route fan-out through mlmath.Pool or break the dependency"},
	{"Clock", clockFacts, "the ambient clock or global RNG: %s; inject mlmath.Clock or a seeded source instead"},
}

func spawnFacts(n *FuncNode) []ambientFact {
	var out []ambientFact
	for _, pos := range n.GoStmts {
		out = append(out, ambientFact{taintFact{pos, "go statement"},
			"goroutine launched in core model package; route data-parallel work through mlmath.Pool so sharding and reduction order stay deterministic"})
	}
	return out
}

// clockFacts matches the wall clock (time.Until is t.Sub(time.Now())) and the
// process-global random source. Methods on an explicitly constructed
// *rand.Rand come through as "Rand.X" and are fine (the caller owns the seed),
// as are the New* constructors that build such sources.
func clockFacts(n *FuncNode) []ambientFact {
	var out []ambientFact
	for _, e := range n.Externals {
		label := e.PkgPath + "." + e.Name
		switch {
		case e.PkgPath == "time" && (e.Name == "Now" || e.Name == "Since" || e.Name == "Until"):
			out = append(out, ambientFact{taintFact{e.Pos, label},
				label + " in core model package; inject a mlmath.Clock so timing reads are replayable"})
		case (e.PkgPath == "math/rand" || e.PkgPath == "math/rand/v2") &&
			!strings.Contains(e.Name, ".") && !strings.HasPrefix(e.Name, "New"):
			out = append(out, ambientFact{taintFact{e.Pos, label}, ""})
		}
	}
	return out
}

// mlmathFuncMentions reports whether n is declared in an mlmath package with
// a receiver or result type whose name contains marker — the structural
// signature of the sanctioned concurrency (Pool, NewPool) and clock (Clock,
// SystemClock.Now, ...) surfaces.
func mlmathFuncMentions(n *FuncNode, marker string) bool {
	if !strings.HasSuffix("/"+n.Pkg.Path, "/mlmath") {
		return false
	}
	mentions := func(fields *ast.FieldList) bool {
		found := false
		if fields != nil {
			for _, f := range fields.List {
				ast.Inspect(f.Type, func(x ast.Node) bool {
					if id, ok := x.(*ast.Ident); ok && strings.Contains(id.Name, marker) {
						found = true
					}
					return !found
				})
			}
		}
		return found
	}
	return mentions(n.Decl.Recv) || mentions(n.Decl.Type.Results)
}

func runDeterminism(pass *Pass) {
	if !IsCorePackage(pass.PkgPath) {
		return
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(), "import of %s in core model package; draw randomness from an injected *mlmath.RNG so runs are reproducible", path)
			}
		}
	}
	nodes := pass.Nodes()
	for _, node := range nodes {
		checkMapOrder(pass, node.Decl.Body)
	}
	for _, rule := range determinismRules {
		res := pass.CallGraph().taint(rule.sanction, func(n *FuncNode) (taintFact, bool) {
			if facts := rule.facts(n); len(facts) > 0 && !mlmathFuncMentions(n, rule.sanction) {
				return facts[0].taintFact, true
			}
			return taintFact{}, false
		})
		for _, node := range nodes {
			if !mlmathFuncMentions(node, rule.sanction) {
				for _, f := range rule.facts(node) {
					if f.direct != "" {
						pass.Reportf(f.Pos, "%s", f.direct)
					}
				}
			}
			seen := map[token.Pos]bool{}
			for _, c := range node.Calls {
				// In-core facts are reported where they are written.
				if IsCorePackage(c.Callee.Pkg.Path) || !res.isTainted(c.Callee) || seen[c.Pos] {
					continue
				}
				seen[c.Pos] = true
				pass.Reportf(c.Pos, "core function %s reaches "+rule.reach, node.Name(), res.path(pass.Fset, c.Callee))
			}
		}
	}
}

// checkMapOrder flags `for k := range m { s = append(s, ...) }` where s is
// declared outside the loop and never handed to a sorting function anywhere
// in body.
func checkMapOrder(pass *Pass, body *ast.BlockStmt) {
	sortedSlices := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isSortCall(pass, call) {
			return true
		}
		for _, arg := range call.Args {
			expr := arg
			if un, ok := expr.(*ast.UnaryExpr); ok {
				expr = un.X
			}
			if id, ok := expr.(*ast.Ident); ok {
				if obj := pass.ObjectOf(id); obj != nil {
					sortedSlices[obj] = true
				}
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		if rng, ok := n.(*ast.RangeStmt); ok {
			checkMapRangeAppend(pass, rng, sortedSlices)
		}
		return true
	})
}

func isSortCall(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := pass.ObjectOf(sel.Sel)
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() {
	case "sort":
		return true
	case "slices":
		return len(obj.Name()) >= 4 && obj.Name()[:4] == "Sort"
	}
	return false
}

// checkMapRangeAppend flags `for k := range m { s = append(s, ...) }` where
// s is declared outside the loop and never sorted in the enclosing function.
func checkMapRangeAppend(pass *Pass, rng *ast.RangeStmt, sortedSlices map[types.Object]bool) {
	t := pass.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
			return true
		}
		lhs, ok := asg.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		call, ok := asg.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		fun, ok := call.Fun.(*ast.Ident)
		if !ok || fun.Name != "append" {
			return true
		}
		if obj := pass.ObjectOf(fun); obj != nil {
			if _, isBuiltin := obj.(*types.Builtin); !isBuiltin {
				return true // shadowed append
			}
		}
		obj := pass.ObjectOf(lhs)
		if obj == nil || sortedSlices[obj] {
			return true
		}
		// Declared inside the loop body → the slice never escapes one
		// iteration in map order.
		if obj.Pos() >= rng.Body.Pos() && obj.Pos() <= rng.Body.End() {
			return true
		}
		pass.Reportf(asg.Pos(), "slice %s is built by appending inside a range over a map: element order is nondeterministic; sort it afterwards or iterate sorted keys", lhs.Name)
		return true
	})
}
