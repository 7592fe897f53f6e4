package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// runGoCtx guards the serving tier against goroutine leaks: every go
// statement in the scoped packages must spawn a body with a visible
// termination path — a context.Context use, a channel operation (send,
// receive, select, range-over-channel), or a WaitGroup.Done — in the body
// itself or in a statically-called function. A goroutine with none of these
// runs until process exit, which in a drain-aware proxy means leaked
// connections and a server that never quiesces.
//
// Spawns whose target cannot be resolved statically (func-typed fields,
// interface methods, call results) are skipped: the rule under-approximates
// rather than guessing.
func runGoCtx(cfg *Config, prog *Program) []Diagnostic {
	if len(cfg.GoCtxPkgs) == 0 {
		return nil
	}
	gc := &goCtx{decls: declIndex(prog), memo: make(map[*types.Func]int8)}
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		if !hasPrefixPath(pkg.ImportPath, cfg.GoCtxPkgs) {
			continue
		}
		for _, fd := range funcDecls(pkg) {
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				bpkg, body := gc.resolveSpawn(pkg, fd, gs.Call)
				if body == nil {
					return true
				}
				if !gc.nodeTerminates(bpkg, body, 0) {
					diags = append(diags, Diagnostic{
						Pos:  prog.Fset.Position(gs.Pos()),
						Rule: "goctx",
						Msg:  "goroutine has no termination path (no context use, channel operation, or WaitGroup.Done reachable from its body); it can leak",
					})
				}
				return true
			})
		}
	}
	return diags
}

type goCtx struct {
	decls map[*types.Func]*declBody
	// memo caches nodeTerminates per declared function: 0 unknown, 1 in
	// progress (treated as non-terminating to break cycles), 2 yes, 3 no.
	memo map[*types.Func]int8
}

// resolveSpawn finds the body the go statement runs: a literal, a local
// variable assigned a literal, or a declared function/method.
func (gc *goCtx) resolveSpawn(pkg *Package, enclosing *ast.FuncDecl, call *ast.CallExpr) (*Package, ast.Node) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		return pkg, fun.Body
	case *ast.Ident:
		if v, ok := pkg.Info.Uses[fun].(*types.Var); ok {
			return pkg, localFuncLit(pkg, enclosing, v)
		}
	}
	for _, f := range callees(pkg, call, nil) {
		if db, ok := gc.decls[f]; ok {
			return db.pkg, db.body
		}
	}
	return nil, nil
}

// localFuncLit finds the function literal assigned to local variable v
// inside the enclosing declaration.
func localFuncLit(pkg *Package, enclosing *ast.FuncDecl, v *types.Var) ast.Node {
	var body ast.Node
	ast.Inspect(enclosing, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range node.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || i >= len(node.Rhs) {
					continue
				}
				if pkg.Info.Defs[id] == v || pkg.Info.Uses[id] == v {
					if fl, ok := node.Rhs[i].(*ast.FuncLit); ok {
						body = fl.Body
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range node.Names {
				if pkg.Info.Defs[name] == v && i < len(node.Values) {
					if fl, ok := node.Values[i].(*ast.FuncLit); ok {
						body = fl.Body
					}
				}
			}
		}
		return true
	})
	return body
}

// maxSpawnDepth bounds how far termination signals propagate through static
// calls from the spawned body.
const maxSpawnDepth = 3

// nodeTerminates scans node (including nested literals — a signal anywhere
// in the lexical body counts) for a termination path, following static
// calls up to maxSpawnDepth.
func (gc *goCtx) nodeTerminates(pkg *Package, node ast.Node, depth int) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if found {
			return false
		}
		switch e := n.(type) {
		case *ast.SelectStmt, *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if tv, ok := pkg.Info.Types[e.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.Ident:
			if obj := pkg.Info.Uses[e]; obj != nil && isContextType(obj.Type()) {
				found = true
			}
		case *ast.CallExpr:
			if waitGroupSignal(pkg, e) {
				found = true
				break
			}
			if depth < maxSpawnDepth {
				for _, callee := range callees(pkg, e, nil) {
					if gc.funcTerminates(callee, depth+1) {
						found = true
						break
					}
				}
			}
		}
		return !found
	})
	return found
}

// funcTerminates is nodeTerminates over a declared function, memoised.
func (gc *goCtx) funcTerminates(f *types.Func, depth int) bool {
	switch gc.memo[f] {
	case 1: // in progress: break the cycle pessimistically
		return false
	case 2:
		return true
	case 3:
		return false
	}
	db, ok := gc.decls[f]
	if !ok {
		return false // no body in the module (stdlib): no visible signal
	}
	gc.memo[f] = 1
	ok = gc.nodeTerminates(db.pkg, db.body, depth)
	if ok {
		gc.memo[f] = 2
	} else {
		gc.memo[f] = 3
	}
	return ok
}

// waitGroupSignal reports a call to (*sync.WaitGroup).Done or .Wait.
func waitGroupSignal(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Done" && sel.Sel.Name != "Wait") {
		return false
	}
	s, ok := pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	named := namedOf(s.Recv())
	return named != nil && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "WaitGroup"
}
