package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// This file builds the module-wide static call graph that Pass.CallGraph
// hands to analyzers checking transitive contracts (determinism's "core code
// never reaches a forbidden call"). The graph is resolved over go/types:
//
//   - direct calls to package-level functions and methods on concrete types
//     become ordinary edges;
//   - calls through an interface method are resolved against the method sets
//     of every named type declared in the loaded module packages: one edge
//     per implementation (ViaInterface=true). This is the standard
//     class-hierarchy approximation — sound for interfaces whose
//     implementations all live in this module, which holds for the contracts
//     it serves (mlmath.Clock, modelsvc.Predictor/Backend,
//     optimizer.CardEstimator, ...);
//   - calls into packages outside the module (the standard library, since
//     go.mod has no dependencies) are recorded as ExternalCall leaves, so
//     analyzers can match them against denylists (time.Now, math/rand)
//     without traversing GOROOT source.
//
// Soundness caveats, by design (documented in docs/ANALYSIS.md): calls
// through function-typed values (fields, parameters, closures passed around)
// create no edges, and reflection is invisible. Code inside a function
// literal is attributed to the enclosing declared function, which is exactly
// right for the transitive-reachability questions this graph answers: the
// spawn inside `go func(){...}()` belongs to whoever wrote the go statement.

// FuncNode is one declared function or method with a body in a loaded
// module package.
type FuncNode struct {
	Fn   *types.Func
	Pkg  *Package
	Decl *ast.FuncDecl
	// Calls are resolved edges to other module functions.
	Calls []CallSite
	// Externals are calls that leave the module (standard library).
	Externals []ExternalCall
	// GoStmts are the positions of go statements in the body (function
	// literals included).
	GoStmts []token.Pos
}

// Name renders pkgShortName.FuncName or pkgShortName.(Recv).Method for
// diagnostics.
func (n *FuncNode) Name() string {
	name := n.Fn.Name()
	if sig, ok := n.Fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if n.Fn.Pkg() != nil {
		name = n.Fn.Pkg().Name() + "." + name
	}
	return name
}

// CallSite is one resolved call edge.
type CallSite struct {
	Pos    token.Pos
	Callee *FuncNode
	// ViaInterface marks edges added by interface method-set resolution:
	// the call dispatches dynamically and Callee is one possible target.
	ViaInterface bool
}

// ExternalCall is a call leaving the module.
type ExternalCall struct {
	// PkgPath is the callee's package ("time", "math/rand").
	PkgPath string
	// Name is the function name, or "Recv.Method" for methods.
	Name string
	Pos  token.Pos
}

// CallGraph is the module-wide static call graph.
type CallGraph struct {
	// Nodes indexes every declared function body by its types.Func object
	// (generic functions by their origin object).
	Nodes map[*types.Func]*FuncNode

	modPkgs map[*types.Package]*Package
	// namedTypes are all named non-interface types declared in the module,
	// for interface method-set resolution.
	namedTypes []*types.Named
	// implCache memoizes interface resolution per interface method object.
	implCache map[*types.Func][]*FuncNode
	// taints memoizes taint passes by key.
	taints map[string]taintResult
}

// BuildCallGraph constructs the graph over the given packages (normally
// every package the Loader has loaded, so edges through helper packages
// resolve even when only a subset is being reported on).
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		Nodes:     map[*types.Func]*FuncNode{},
		modPkgs:   map[*types.Package]*Package{},
		implCache: map[*types.Func][]*FuncNode{},
		taints:    map[string]taintResult{},
	}
	for _, pkg := range pkgs {
		if pkg.Types != nil {
			g.modPkgs[pkg.Types] = pkg
		}
	}
	// Pass 1: one node per declared function body, and the named-type index.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					obj, ok := pkg.Info.Defs[d.Name].(*types.Func)
					if !ok || d.Body == nil {
						continue
					}
					g.Nodes[obj] = &FuncNode{Fn: obj, Pkg: pkg, Decl: d}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName)
						if !ok {
							continue
						}
						named, ok := tn.Type().(*types.Named)
						if !ok || types.IsInterface(named) {
							continue
						}
						g.namedTypes = append(g.namedTypes, named)
					}
				}
			}
		}
	}
	// Pass 2: edges.
	for _, node := range g.Nodes {
		g.addEdges(node)
	}
	return g
}

// isModulePkg reports whether p is one of the loaded module packages.
func (g *CallGraph) isModulePkg(p *types.Package) bool {
	_, ok := g.modPkgs[p]
	return ok
}

// addEdges walks one function body, recording go statements and resolving
// every call expression.
func (g *CallGraph) addEdges(node *FuncNode) {
	info := node.Pkg.Info
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			node.GoStmts = append(node.GoStmts, n.Pos())
		case *ast.CallExpr:
			g.resolveCall(node, info, n)
		}
		return true
	})
}

// resolveCall classifies one call expression into module edges or an
// external leaf. Calls through function-typed values resolve to no object
// and are (soundly for this module's contracts, see package docs) dropped.
func (g *CallGraph) resolveCall(node *FuncNode, info *types.Info, call *ast.CallExpr) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return // builtin, conversion, or function-typed value
	}
	fn = fn.Origin() // collapse generic instantiations onto the declaration
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		// Interface method: resolve against module method sets.
		for _, impl := range g.implementations(fn) {
			node.Calls = append(node.Calls, CallSite{Pos: call.Pos(), Callee: impl, ViaInterface: true})
		}
		return
	}
	if fn.Pkg() == nil {
		return // universe scope (error.Error on the universe error type)
	}
	if g.isModulePkg(fn.Pkg()) {
		if callee, ok := g.Nodes[fn]; ok {
			node.Calls = append(node.Calls, CallSite{Pos: call.Pos(), Callee: callee})
		}
		return
	}
	name := fn.Name()
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	node.Externals = append(node.Externals, ExternalCall{PkgPath: fn.Pkg().Path(), Name: name, Pos: call.Pos()})
}

// implementations returns the module methods that a call to the given
// interface method can dispatch to: for every named module type whose
// method set (value or pointer) satisfies the method's interface, the
// concrete method of the same name.
func (g *CallGraph) implementations(ifaceMethod *types.Func) []*FuncNode {
	if impls, ok := g.implCache[ifaceMethod]; ok {
		return impls
	}
	var impls []*FuncNode
	recv := ifaceMethod.Type().(*types.Signature).Recv().Type()
	iface, ok := recv.Underlying().(*types.Interface)
	if ok {
		for _, named := range g.namedTypes {
			var impl types.Type
			switch {
			case types.Implements(named, iface):
				impl = named
			case types.Implements(types.NewPointer(named), iface):
				impl = types.NewPointer(named)
			default:
				continue
			}
			m, _, _ := types.LookupFieldOrMethod(impl, true, ifaceMethod.Pkg(), ifaceMethod.Name())
			if mf, ok := m.(*types.Func); ok {
				if n, ok := g.Nodes[mf.Origin()]; ok {
					impls = append(impls, n)
				}
			}
		}
	}
	g.implCache[ifaceMethod] = impls
	return impls
}

// taintFact is a forbidden operation in a function's own body: where it is
// and how a rendered call chain names it ("go statement", "time.Now").
type taintFact struct {
	Pos   token.Pos
	Label string
}

// taintResult maps every node that can reach a seeded fact to the next hop
// toward one.
type taintResult struct {
	// next maps a tainted node to the call edge to follow toward the fact.
	next map[*FuncNode]CallSite
	// fact holds the offending fact for nodes whose own body is bad.
	fact map[*FuncNode]taintFact
}

// taint runs a reverse reachability pass: seed the nodes for which seed
// returns a fact, then walk callers until fixpoint. Results are memoized by
// key, so every package of one Analyze call shares one pass per fact family.
func (g *CallGraph) taint(key string, seed func(*FuncNode) (taintFact, bool)) taintResult {
	if res, ok := g.taints[key]; ok {
		return res
	}
	res := taintResult{next: map[*FuncNode]CallSite{}, fact: map[*FuncNode]taintFact{}}
	// Reverse edges.
	callers := map[*FuncNode][]struct {
		caller *FuncNode
		site   CallSite
	}{}
	var worklist []*FuncNode
	for _, n := range g.Nodes {
		for _, c := range n.Calls {
			callers[c.Callee] = append(callers[c.Callee], struct {
				caller *FuncNode
				site   CallSite
			}{n, c})
		}
		if f, ok := seed(n); ok {
			res.fact[n] = f
			worklist = append(worklist, n)
		}
	}
	for len(worklist) > 0 {
		n := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]
		for _, in := range callers[n] {
			if res.isTainted(in.caller) {
				continue
			}
			res.next[in.caller] = in.site
			worklist = append(worklist, in.caller)
		}
	}
	g.taints[key] = res
	return res
}

// isTainted reports whether n can reach a bad fact (its own body included).
func (r taintResult) isTainted(n *FuncNode) bool {
	if _, ok := r.fact[n]; ok {
		return true
	}
	_, ok := r.next[n]
	return ok
}

// path renders the call chain from n to its fact, e.g. "qo.train ->
// util.fanOut (go statement at util.go:12)", capped at eight hops so a
// pathological graph cannot produce an unreadable diagnostic.
func (r taintResult) path(fset *token.FileSet, n *FuncNode) string {
	var hops []string
	for i := 0; i < 8; i++ {
		if f, ok := r.fact[n]; ok {
			pos := fset.Position(f.Pos)
			hops = append(hops, fmt.Sprintf("%s (%s at %s:%d)", n.Name(), f.Label, filepath.Base(pos.Filename), pos.Line))
			break
		}
		site, ok := r.next[n]
		if !ok {
			break
		}
		hops = append(hops, n.Name())
		n = site.Callee
	}
	return strings.Join(hops, " -> ")
}
