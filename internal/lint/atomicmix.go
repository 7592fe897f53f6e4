package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// runAtomicMix enforces two memory-discipline invariants module-wide:
//
//   - a field or variable whose address is passed to a sync/atomic function
//     anywhere must never be read or written plainly — mixing the two gives
//     racy, torn, or stale views that the race detector only catches when a
//     test happens to interleave them;
//   - structs that embed synchronization state (sync.Mutex/RWMutex/
//     WaitGroup/Cond or sync/atomic value types) must not be copied by
//     value: the copy forks the lock, silently splitting the critical
//     section. This extends vet's copylocks to sync/atomic value types.
//     Checked copy sites are assignments and var initializers reading an
//     existing value, by-value range over such element types, and by-value
//     call arguments.
func runAtomicMix(cfg *Config, prog *Program) []Diagnostic {
	if len(cfg.AtomicMixPkgs) == 0 {
		return nil
	}
	var scoped []*Package
	for _, pkg := range prog.Pkgs {
		if hasPrefixPath(pkg.ImportPath, cfg.AtomicMixPkgs) {
			scoped = append(scoped, pkg)
		}
	}

	// Pass 1: collect every object whose address feeds sync/atomic, and
	// exempt the nodes inside those calls' argument lists.
	atomicSite := make(map[types.Object]token.Position)
	exempt := make(map[token.Pos]bool)
	for _, pkg := range scoped {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if path, _, ok := pkgFuncCall(pkg, call); !ok || path != "sync/atomic" {
					return true
				}
				for _, arg := range call.Args {
					ast.Inspect(arg, func(m ast.Node) bool {
						if m != nil {
							exempt[m.Pos()] = true
						}
						return true
					})
					if un, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && un.Op == token.AND {
						if obj := addrTarget(pkg, un.X); obj != nil {
							if _, seen := atomicSite[obj]; !seen {
								atomicSite[obj] = prog.Fset.Position(un.Pos())
							}
						}
					}
				}
				return true
			})
		}
	}

	var diags []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Pos:  prog.Fset.Position(pos),
			Rule: "atomicmix",
			Msg:  fmt.Sprintf(format, args...),
		})
	}

	// Pass 2: plain accesses of atomically-updated objects, plus value
	// copies of lock-bearing types.
	for _, pkg := range scoped {
		qual := types.RelativeTo(pkg.Types)
		flagCopy := func(pos token.Pos, t types.Type, verb string) {
			if inner, found := lockComponent(t, nil); found {
				report(pos, "%s %s which contains %s; share it by pointer", verb, types.TypeString(t, qual), inner)
			}
		}
		for _, fd := range funcDecls(pkg) {
			skip := skippedIdents(fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch node := n.(type) {
				case *ast.SelectorExpr:
					if sel, ok := pkg.Info.Selections[node]; ok && sel.Kind() == types.FieldVal {
						if site, hot := atomicSite[sel.Obj()]; hot && !exempt[node.Pos()] {
							report(node.Pos(), "%s is accessed atomically elsewhere (%s:%d) but plainly here; every access must go through sync/atomic",
								sel.Obj().Name(), filepath.Base(site.Filename), site.Line)
						}
					}
				case *ast.Ident:
					if skip[node] {
						return true
					}
					if obj := pkg.Info.Uses[node]; obj != nil {
						if site, hot := atomicSite[obj]; hot && !exempt[node.Pos()] {
							report(node.Pos(), "%s is accessed atomically elsewhere (%s:%d) but plainly here; every access must go through sync/atomic",
								obj.Name(), filepath.Base(site.Filename), site.Line)
						}
					}
				case *ast.AssignStmt:
					for _, rhs := range node.Rhs {
						if isValueRead(rhs) {
							if tv, ok := pkg.Info.Types[rhs]; ok {
								flagCopy(rhs.Pos(), tv.Type, "copies")
							}
						}
					}
				case *ast.RangeStmt:
					if node.Value != nil {
						if t := exprType(pkg, node.Value); t != nil {
							if inner, found := lockComponent(t, nil); found {
								report(node.Pos(), "range copies %s which contains %s; iterate by index or store pointers",
									types.TypeString(t, qual), inner)
							}
						}
					}
				case *ast.CallExpr:
					if id, ok := ast.Unparen(node.Fun).(*ast.Ident); ok {
						if _, builtin := pkg.Info.Uses[id].(*types.Builtin); builtin {
							return true
						}
					}
					for _, arg := range node.Args {
						if isValueRead(arg) {
							if tv, ok := pkg.Info.Types[arg]; ok {
								flagCopy(arg.Pos(), tv.Type, "passing by value copies")
							}
						}
					}
				}
				return true
			})
		}
	}
	return diags
}

// exprType resolves an expression's type, falling back to the defined or
// used object for identifiers the Types map omits (range variables).
func exprType(pkg *Package, e ast.Expr) types.Type {
	if tv, ok := pkg.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := pkg.Info.Defs[id]; obj != nil {
			return obj.Type()
		}
		if obj := pkg.Info.Uses[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// addrTarget resolves &expr's operand to the declared field or variable.
func addrTarget(pkg *Package, expr ast.Expr) types.Object {
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			return sel.Obj()
		}
	case *ast.Ident:
		return pkg.Info.Uses[e]
	}
	return nil
}

// isValueRead reports whether expr reads an existing memory location by
// value (the copy-hazard shapes): a variable, field, element, or
// dereference. Composite literals and call results are fresh values whose
// construction is not a copy of shared state.
func isValueRead(expr ast.Expr) bool {
	switch ast.Unparen(expr).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	}
	return false
}

// lockComponent reports whether t (recursively, through struct fields and
// array elements) contains synchronization state that must not be copied,
// naming the innermost offending type.
func lockComponent(t types.Type, visited map[types.Type]bool) (string, bool) {
	if visited[t] {
		return "", false
	}
	if visited == nil {
		visited = make(map[types.Type]bool)
	}
	visited[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil {
			path, name := obj.Pkg().Path(), obj.Name()
			switch {
			case path == "sync" && (name == "Mutex" || name == "RWMutex" || name == "WaitGroup" || name == "Cond"):
				return "sync." + name, true
			case path == "sync/atomic":
				return "atomic." + name, true
			}
		}
		return lockComponent(named.Underlying(), visited)
	}
	switch u := t.(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if inner, found := lockComponent(u.Field(i).Type(), visited); found {
				return inner, true
			}
		}
	case *types.Array:
		return lockComponent(u.Elem(), visited)
	}
	return "", false
}
