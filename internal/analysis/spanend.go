package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// spanend verifies, path-sensitively over the per-function CFG, that local
// resources reach their release on every return path:
//
//   - an *obs.Span obtained from any non-Span-receiver call (Tracer.StartSpan
//     and helpers that return a started span) must reach .End();
//   - an *os.File from os.Open/Create/CreateTemp/OpenFile must reach
//     .Close();
//   - a *storage.PageHandle obtained from any non-PageHandle-receiver call
//     (Pool.Fetch, ScanRun.Read and helpers) must reach .Unpin(), or
//     the frame stays pinned and the pool eventually refuses to evict.
//
// Chained setters (sp.SetInt(...).End()) resolve through the method chain to
// the root variable. A release registered with defer — directly or inside a
// defer'd function literal — covers every later path. Conservative escape
// analysis keeps the checker honest rather than noisy: once the resource is
// returned, passed as an argument, stored in a field/slice/channel, or
// captured by a non-defer function literal, ownership is someone else's and
// tracking stops. A return path that propagates the creation's own non-nil
// error is exempt for two-result creations (on error the handle is nil by
// the os contract). Functions using goto are skipped (no CFG).
var SpanEndAnalyzer = &Analyzer{
	Name: "spanend",
	Doc:  "obs spans must reach End, os files Close, and storage page handles Unpin on every return path",
	Run:  runSpanEnd,
}

func runSpanEnd(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkSpanFunc(pass, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					checkSpanFunc(pass, fl.Body)
				}
				return true
			})
		}
	}
}

// resource describes one tracked creation site.
type resource struct {
	obj     types.Object
	release string // "End" or "Close"
	what    string // human label for diagnostics
	// errObj is the error result bound alongside the resource (two-result
	// creations), for the error-path exemption.
	errObj types.Object
}

type spanChecker struct {
	pass *Pass
	// creations maps the creating AssignStmt to its resource.
	creations map[*ast.AssignStmt]*resource
	// tracked indexes resources by variable object (escaped ones removed).
	tracked  map[types.Object]*resource
	reported map[token.Pos]bool
}

func checkSpanFunc(pass *Pass, body *ast.BlockStmt) {
	sc := &spanChecker{
		pass:      pass,
		creations: map[*ast.AssignStmt]*resource{},
		tracked:   map[types.Object]*resource{},
		reported:  map[token.Pos]bool{},
	}
	sc.collect(body)
	if len(sc.tracked) == 0 {
		return
	}
	sc.pruneEscapes(body)
	if len(sc.tracked) == 0 {
		return
	}
	g, ok := buildCFG(body)
	if !ok {
		return
	}
	sc.flow(g)
}

// collect finds creation sites in body (nested function literals excluded —
// they are checked as their own functions) and reports discarded creations.
func (sc *spanChecker) collect(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if release, what, ok := sc.creationCall(call); ok && release != "Close" {
					sc.pass.Reportf(call.Pos(), "%s is discarded; it can never reach %s()", what, release)
				}
			}
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			release, what, ok := sc.creationCall(call)
			if !ok {
				return true
			}
			id, ok := n.Lhs[0].(*ast.Ident)
			if !ok {
				return true
			}
			if id.Name == "_" {
				sc.pass.Reportf(call.Pos(), "%s is assigned to _; it can never reach %s()", what, release)
				return true
			}
			obj := sc.pass.ObjectOf(id)
			if obj == nil {
				return true
			}
			r := &resource{obj: obj, release: release, what: what}
			if len(n.Lhs) == 2 {
				if eid, ok := n.Lhs[1].(*ast.Ident); ok && eid.Name != "_" {
					r.errObj = sc.pass.ObjectOf(eid)
				}
			}
			sc.creations[n] = r
			sc.tracked[obj] = r
		}
		return true
	})
}

// creationCall classifies call as a resource creation.
func (sc *spanChecker) creationCall(call *ast.CallExpr) (release, what string, ok bool) {
	for _, name := range [...]string{"Open", "Create", "CreateTemp", "OpenFile"} {
		if sc.pass.IsPkgFunc(call, "os", name) {
			return "Close", "the file opened by os." + name, true
		}
	}
	t := sc.pass.TypeOf(call)
	if tup, isTup := t.(*types.Tuple); isTup && tup.Len() > 0 {
		t = tup.At(0).Type()
	}
	if isObsSpanPtr(t) {
		// Methods on *obs.Span itself (SetInt, SetStr, ...) chain on an
		// existing span; only non-Span receivers (Tracer.StartSpan, helpers)
		// create one.
		if sc.receiverIs(call, isObsSpanPtr) {
			return "", "", false
		}
		return "End", "the span started here", true
	}
	if isStorageHandlePtr(t) {
		if sc.receiverIs(call, isStorageHandlePtr) {
			return "", "", false
		}
		return "Unpin", "the page handle pinned here", true
	}
	return "", "", false
}

// receiverIs reports whether call is a method call whose receiver type
// satisfies match — i.e. the call chains on an existing resource rather than
// creating a new one.
func (sc *spanChecker) receiverIs(call *ast.CallExpr, match func(types.Type) bool) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := sc.pass.ObjectOf(sel.Sel).(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && match(recv.Type())
}

func isObsSpanPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	path := named.Obj().Pkg().Path()
	segs := strings.Split(path, "/")
	return named.Obj().Name() == "Span" && segs[len(segs)-1] == "obs"
}

// isStorageHandlePtr reports whether t is *storage.PageHandle (matched by
// name and final package segment, so the fixture mirror qualifies too).
func isStorageHandlePtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	path := named.Obj().Pkg().Path()
	segs := strings.Split(path, "/")
	return named.Obj().Name() == "PageHandle" && segs[len(segs)-1] == "storage"
}

// pruneEscapes drops resources whose variable is used in any way other than
// method calls / field access on it, nil comparisons, its own (re)creation,
// or a release inside a defer'd literal. Uses inside non-defer function
// literals always escape (the literal may run on another goroutine or later).
func (sc *spanChecker) pruneEscapes(body *ast.BlockStmt) {
	type span struct{ lo, hi token.Pos }
	var litRanges []span
	benign := map[*ast.Ident]bool{}
	// Literals invoked directly by defer are release carriers, not escapes.
	deferLits := map[*ast.FuncLit]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			if fl, it := ast.Unparen(d.Call.Fun).(*ast.FuncLit); it {
				deferLits[fl] = true
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if !deferLits[n] {
				litRanges = append(litRanges, span{n.Pos(), n.End()})
			}
		case *ast.SelectorExpr:
			if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
				benign[id] = true
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				if isNilIdent(n.X) {
					if id, ok := ast.Unparen(n.Y).(*ast.Ident); ok {
						benign[id] = true
					}
				}
				if isNilIdent(n.Y) {
					if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
						benign[id] = true
					}
				}
			}
		case *ast.AssignStmt:
			if sc.creations[n] != nil {
				if id, ok := n.Lhs[0].(*ast.Ident); ok {
					benign[id] = true
				}
			}
		}
		return true
	})
	inLit := func(pos token.Pos) bool {
		for _, r := range litRanges {
			if pos >= r.lo && pos < r.hi {
				return true
			}
		}
		return false
	}
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := sc.pass.ObjectOf(id)
		if obj == nil {
			return true
		}
		if r, isTracked := sc.tracked[obj]; isTracked && r.obj == obj {
			if !benign[id] || inLit(id.Pos()) {
				delete(sc.tracked, obj)
			}
		}
		return true
	})
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// spanState is the dataflow fact: creation position per live resource, plus
// the set with a deferred release.
type spanState struct {
	held     map[types.Object]token.Pos
	deferred map[types.Object]bool
}

func newSpanState() *spanState {
	return &spanState{held: map[types.Object]token.Pos{}, deferred: map[types.Object]bool{}}
}

func (s *spanState) clone() *spanState {
	c := newSpanState()
	for k, v := range s.held {
		c.held[k] = v
	}
	for k := range s.deferred {
		c.deferred[k] = true
	}
	return c
}

func (s *spanState) key() string {
	var parts []string
	for obj, pos := range s.held {
		parts = append(parts, fmt.Sprintf("h:%d@%d", obj.Pos(), pos))
	}
	for obj := range s.deferred {
		parts = append(parts, fmt.Sprintf("d:%d", obj.Pos()))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func (sc *spanChecker) flow(g *cfg) {
	type work struct {
		block *cfgBlock
		state *spanState
	}
	visited := map[*cfgBlock]map[string]bool{}
	stack := []work{{g.entry, newSpanState()}}
	for len(stack) > 0 {
		w := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		seen := visited[w.block]
		if seen == nil {
			seen = map[string]bool{}
			visited[w.block] = seen
		}
		k := w.state.key()
		if seen[k] {
			continue
		}
		seen[k] = true
		st := w.state
		var lastReturn *ast.ReturnStmt
		for _, n := range w.block.nodes {
			sc.applyNode(n, st)
			if r, ok := n.(*ast.ReturnStmt); ok {
				lastReturn = r
			}
		}
		if w.block.exits {
			sc.reportLeaks(st, lastReturn)
		}
		for _, succ := range w.block.succs {
			stack = append(stack, work{succ, st.clone()})
		}
	}
}

func (sc *spanChecker) applyNode(n ast.Node, st *spanState) {
	if d, ok := n.(*ast.DeferStmt); ok {
		sc.applyDefer(d, st)
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if r := sc.creations[x]; r != nil && sc.tracked[r.obj] != nil {
				if prev, held := st.held[r.obj]; held && !st.deferred[r.obj] {
					sc.report(prev, "%s is overwritten at line %d before reaching %s()",
						r.what, sc.pass.Fset.Position(x.Pos()).Line, r.release)
				}
				st.held[r.obj] = x.Rhs[0].Pos()
			}
		case *ast.CallExpr:
			if obj, ok := sc.releaseTarget(x); ok {
				delete(st.held, obj)
			}
		}
		return true
	})
}

func (sc *spanChecker) applyDefer(d *ast.DeferStmt, st *spanState) {
	if obj, ok := sc.releaseTarget(d.Call); ok {
		st.deferred[obj] = true
		return
	}
	if fl, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(fl.Body, func(x ast.Node) bool {
			if c, ok := x.(*ast.CallExpr); ok {
				if obj, ok := sc.releaseTarget(c); ok {
					st.deferred[obj] = true
				}
			}
			return true
		})
	}
}

// releaseTarget resolves calls like sp.End(), f.Close(), or
// sp.SetInt(...).End() to the tracked root variable.
func (sc *spanChecker) releaseTarget(call *ast.CallExpr) (types.Object, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	root := chainRootIdent(sel.X)
	if root == nil {
		return nil, false
	}
	obj := sc.pass.ObjectOf(root)
	r := sc.tracked[obj]
	if r == nil || sel.Sel.Name != r.release {
		return nil, false
	}
	return obj, true
}

// chainRootIdent walks a method chain (sp.SetInt(a).SetStr(b)) back to its
// root identifier.
func chainRootIdent(e ast.Expr) *ast.Ident {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return chainRootIdent(e.X)
	case *ast.CallExpr:
		return chainRootIdent(e.Fun)
	}
	return nil
}

func (sc *spanChecker) reportLeaks(st *spanState, ret *ast.ReturnStmt) {
	type leak struct {
		pos token.Pos
		r   *resource
	}
	var leaks []leak
	for obj, pos := range st.held {
		if st.deferred[obj] {
			continue
		}
		r := sc.tracked[obj]
		if r == nil {
			continue
		}
		if ret != nil && r.errObj != nil && returnMentions(sc.pass, ret, r.errObj) {
			continue // propagating the creation's own error: handle is nil
		}
		leaks = append(leaks, leak{pos, r})
	}
	sort.Slice(leaks, func(i, j int) bool { return leaks[i].pos < leaks[j].pos })
	for _, l := range leaks {
		sc.report(l.pos, "%s may not reach %s() on every return path; add a defer or release it before returning", l.r.what, l.r.release)
	}
}

func returnMentions(pass *Pass, ret *ast.ReturnStmt, obj types.Object) bool {
	found := false
	for _, e := range ret.Results {
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && pass.ObjectOf(id) == obj {
				found = true
			}
			return !found
		})
	}
	return found
}

func (sc *spanChecker) report(pos token.Pos, format string, args ...any) {
	if sc.reported[pos] {
		return
	}
	sc.reported[pos] = true
	sc.pass.Reportf(pos, format, args...)
}
