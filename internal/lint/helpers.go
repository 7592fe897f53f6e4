package lint

import (
	"go/ast"
	"go/types"
)

// pkgFuncCall resolves a call to a package-level function accessed through a
// package qualifier (pkg.Fn(...)), returning the package path and name.
func pkgFuncCall(pkg *Package, call *ast.CallExpr) (path, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isID := sel.X.(*ast.Ident)
	if !isID {
		return "", "", false
	}
	pn, isPkg := pkg.Info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	obj := pkg.Info.Uses[sel.Sel]
	if _, isFunc := obj.(*types.Func); !isFunc {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// callees is lockorder's call-site resolver: it maps a call to the declared
// module functions it may run. A generic function or a generic type's method
// resolves to its declaration (Origin): the instantiated object the type
// checker records at the call site is a different *types.Func from the one
// the body is declared under, and a walk keyed on it would stop there. An
// interface method call is not followed, and neither is a call through a
// func-typed value: both are dynamically dispatched and resolve to nothing.
func callees(pkg *Package, call *ast.CallExpr) []*types.Func {
	fun := ast.Unparen(call.Fun)
	switch inst := fun.(type) { // explicit instantiation: f[T](...)
	case *ast.IndexExpr:
		fun = inst.X
	case *ast.IndexListExpr:
		fun = inst.X
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		if f, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return []*types.Func{f.Origin()}
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			f, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil // func-typed field: dynamically dispatched
			}
			if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				return nil
			}
			return []*types.Func{f.Origin()}
		}
		if f, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return []*types.Func{f.Origin()}
		}
	}
	return nil
}

// rootObject strips selectors, indexing, stars and parens down to the base
// identifier of expr and returns its object (nil when the base is not a
// resolved identifier).
func rootObject(pkg *Package, expr ast.Expr) types.Object {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			if obj := pkg.Info.Uses[e]; obj != nil {
				return obj
			}
			return pkg.Info.Defs[e]
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.CallExpr:
			expr = e.Fun
		default:
			return nil
		}
	}
}

// declaredWithin reports whether obj's declaration lies inside node.
func declaredWithin(obj types.Object, node ast.Node) bool {
	return obj != nil && obj.Pos() >= node.Pos() && obj.Pos() < node.End()
}

// funcDecls yields every function declaration with a body in the package.
func funcDecls(pkg *Package) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}

// namedOf unwraps pointers to the named type underneath, if any.
func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
