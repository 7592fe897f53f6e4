package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// runHotPath protects the allocation-free request loop: it builds a static
// call graph over the whole module, marks every function reachable from the
// configured roots (interface calls fan out to every module implementation),
// and reports allocation hazards inside reachable bodies — fmt calls,
// non-constant string concatenation, closures capturing outer variables, and
// any use of container/list.
//
// Where a hot path stops being hot the walk stops too. The configured cold
// functions (a root's miss and shed exits, round-boundary learning) are not
// entered. And a failure is never the hot path: fmt.Errorf builds an error,
// and a call of the built-in error interface's Error method reports one, so
// the first is not a hazard and the second is not followed.
func runHotPath(cfg *Config, prog *Program) []Diagnostic {
	g := newCallGraph(prog)
	roots := resolveRoots(prog, g, cfg.HotPathRoots)
	if len(roots) == 0 {
		return nil
	}
	cold := resolveRoots(prog, g, cfg.HotPathCold)

	// BFS; via[f] names the root that first reached f, for diagnostics.
	via := make(map[*types.Func]string)
	var queue []*types.Func
	for f, rootName := range roots {
		if _, ok := via[f]; !ok {
			via[f] = rootName
			queue = append(queue, f)
		}
	}
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		for _, callee := range g.edges[f] {
			if _, ok := via[callee]; ok {
				continue
			}
			if _, ok := cold[callee]; ok {
				continue
			}
			via[callee] = via[f]
			queue = append(queue, callee)
		}
	}

	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		for _, fd := range funcDecls(pkg) {
			f, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			root, reachable := via[f]
			if !reachable {
				continue
			}
			diags = append(diags, hotPathViolations(prog, pkg, fd, f, root)...)
		}
	}
	return diags
}

// hotPathViolations scans one hot-path function body for allocation hazards.
func hotPathViolations(prog *Program, pkg *Package, fd *ast.FuncDecl, f *types.Func, root string) []Diagnostic {
	var diags []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Pos:  prog.Fset.Position(pos),
			Rule: "hotpath",
			Msg:  fmt.Sprintf(format, args...) + fmt.Sprintf(" in %s (hot path, reachable from %s)", f.Name(), root),
		})
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CallExpr:
			if path, name, ok := pkgFuncCall(pkg, node); ok && path == "fmt" && name != "Errorf" {
				report(node.Pos(), "fmt.%s allocates", name)
			}
		case *ast.Ident:
			if obj := pkg.Info.Uses[node]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "container/list" {
				report(node.Pos(), "container/list %s allocates per node; use the slab-backed intrusive list", obj.Name())
			}
		case *ast.BinaryExpr:
			if node.Op != token.ADD {
				break
			}
			if tv, ok := pkg.Info.Types[node]; ok && tv.Value == nil && isStringType(tv.Type) {
				report(node.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			if node.Tok != token.ADD_ASSIGN || len(node.Lhs) != 1 {
				break
			}
			if tv, ok := pkg.Info.Types[node.Lhs[0]]; ok && isStringType(tv.Type) {
				report(node.Pos(), "string concatenation allocates")
			}
		case *ast.FuncLit:
			if name, ok := capturedVar(pkg, node); ok {
				report(node.Pos(), "closure captures %s and may allocate; hoist it or pass state explicitly", name)
			}
		}
		return true
	})
	return diags
}

// isStringType reports whether t's underlying type is string.
func isStringType(t types.Type) bool {
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Kind() == types.String
}

// capturedVar returns the name of a variable the function literal captures
// from an enclosing function scope, if any.
func capturedVar(pkg *Package, fl *ast.FuncLit) (string, bool) {
	var name string
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || name != "" {
			return name == ""
		}
		v, ok := pkg.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Pkg() != pkg.Types {
			return true
		}
		if v.Parent() == pkg.Types.Scope() || v.Parent() == types.Universe {
			return true // package-level state is not a capture
		}
		if !declaredWithin(v, fl) {
			name = v.Name()
			return false
		}
		return true
	})
	return name, name != ""
}

// callGraph is the module's static call graph. Interface method calls are
// resolved to every module type implementing the interface.
type callGraph struct {
	prog *Program
	// edges maps a declared function to its statically resolvable callees.
	edges map[*types.Func][]*types.Func
	// namedTypes lists every package-level non-interface named type in the
	// module, for interface fan-out.
	namedTypes []*types.Named
}

// newCallGraph indexes declarations and resolves every call site.
func newCallGraph(prog *Program) *callGraph {
	g := &callGraph{prog: prog, edges: make(map[*types.Func][]*types.Func)}
	for _, pkg := range prog.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if named, ok := tn.Type().(*types.Named); ok && !types.IsInterface(named) {
					g.namedTypes = append(g.namedTypes, named)
				}
			}
		}
	}
	for _, pkg := range prog.Pkgs {
		for _, fd := range funcDecls(pkg) {
			caller, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				g.edges[caller] = append(g.edges[caller], callees(pkg, call, g.implementations)...)
				return true
			})
		}
	}
	return g
}

// implementations returns the concrete method name on every module type that
// implements the interface.
func (g *callGraph) implementations(ifaceType types.Type, name string) []*types.Func {
	iface, ok := ifaceType.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*types.Func
	for _, named := range g.namedTypes {
		if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, named.Obj().Pkg(), name)
		if m, ok := obj.(*types.Func); ok {
			out = append(out, m)
		}
	}
	return out
}

// resolveRoots maps configured root strings ("pkgpath.Func" or
// "pkgpath.Type.Method") to declared functions. A root naming an interface
// method expands to every module implementation.
func resolveRoots(prog *Program, g *callGraph, roots []string) map[*types.Func]string {
	out := make(map[*types.Func]string)
	for _, root := range roots {
		for _, pkg := range prog.Pkgs {
			rest, ok := strings.CutPrefix(root, pkg.ImportPath+".")
			if !ok {
				continue
			}
			parts := strings.Split(rest, ".")
			scope := pkg.Types.Scope()
			switch len(parts) {
			case 1:
				if f, ok := scope.Lookup(parts[0]).(*types.Func); ok {
					out[f] = shortRoot(root)
				}
			case 2:
				tn, ok := scope.Lookup(parts[0]).(*types.TypeName)
				if !ok {
					continue
				}
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
					for _, f := range g.implementations(iface, parts[1]) {
						out[f] = shortRoot(root)
					}
					continue
				}
				obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), true, pkg.Types, parts[1])
				if f, ok := obj.(*types.Func); ok {
					out[f] = shortRoot(root)
				}
			}
		}
	}
	return out
}

// shortRoot trims a root's package path to its last element for messages.
func shortRoot(root string) string {
	if i := strings.LastIndex(root, "/"); i >= 0 {
		return root[i+1:]
	}
	return root
}
