package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"regexp"
)

// guardedByRe extracts the mutex name from a "guarded by <mu>" annotation in
// a field or var-block comment.
var guardedByRe = regexp.MustCompile(`(?i)\bguarded by (\w+)\b`)

// parseGuardedBy extracts the mutex name from a "guarded by <mu>" annotation
// in comment text; ok is false when no annotation is present.
func parseGuardedBy(text string) (mu string, ok bool) {
	m := guardedByRe.FindStringSubmatch(text)
	if m == nil {
		return "", false
	}
	return m[1], true
}

// guard records one annotated variable: field or package var obj must only be
// accessed by functions that lock mu.
type guard struct {
	obj types.Object // the guarded field or package var
	mu  types.Object // the mutex that must be held
}

// runLocking enforces "guarded by <mu>" annotations module-wide: a struct
// field or package variable carrying the annotation may only be read or
// written inside functions that lock the named mutex (functions whose name
// ends in "Locked" are exempt — their callers hold the lock).
func runLocking(_ *Config, prog *Program) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		guards, bad := collectGuards(prog, pkg)
		diags = append(diags, bad...)
		if len(guards) == 0 {
			continue
		}
		for _, fd := range funcDecls(pkg) {
			diags = append(diags, lockingInFunc(prog, pkg, fd, guards)...)
		}
	}
	return diags
}

// collectGuards finds every guarded-by annotation in the package: on struct
// fields (the mutex must be a sibling field) and on package var blocks (the
// mutex must be a package-level sync.Mutex/RWMutex).
func collectGuards(prog *Program, pkg *Package) (map[types.Object]*guard, []Diagnostic) {
	guards := make(map[types.Object]*guard)
	var diags []Diagnostic
	bad := func(node ast.Node, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Pos:  prog.Fset.Position(node.Pos()),
			Rule: "locking",
			Msg:  fmt.Sprintf(format, args...),
		})
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok {
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					collectFieldGuards(pkg, st, guards, bad)
				}
			}
			// A var block documented "guarded by <mu>" guards every variable
			// it declares (except the mutex itself, which may be declared in
			// the same block or elsewhere at package level).
			if gd.Tok.String() == "var" && gd.Doc != nil {
				if name, ok := parseGuardedBy(gd.Doc.Text()); ok {
					muObj := pkg.Types.Scope().Lookup(name)
					if muObj == nil || !isMutexType(muObj.Type()) {
						bad(gd, "guarded-by annotation names %q, which is not a package-level sync.Mutex/RWMutex", name)
						continue
					}
					for _, spec := range gd.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok {
							continue
						}
						for _, name := range vs.Names {
							obj := pkg.Info.Defs[name]
							if obj == nil || obj == muObj {
								continue
							}
							guards[obj] = &guard{obj: obj, mu: muObj}
						}
					}
				}
			}
		}
	}
	return guards, diags
}

// collectFieldGuards records guarded-by annotations on the fields of one
// struct type.
func collectFieldGuards(pkg *Package, st *ast.StructType, guards map[types.Object]*guard, bad func(ast.Node, string, ...any)) {
	muByName := make(map[string]types.Object)
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			if obj := pkg.Info.Defs[name]; obj != nil && isMutexType(obj.Type()) {
				muByName[name.Name] = obj
			}
		}
	}
	for _, field := range st.Fields.List {
		text := ""
		if field.Doc != nil {
			text += field.Doc.Text()
		}
		if field.Comment != nil {
			text += field.Comment.Text()
		}
		muName, ok := parseGuardedBy(text)
		if !ok {
			continue
		}
		muObj, ok := muByName[muName]
		if !ok {
			bad(field, "guarded-by annotation names %q, which is not a sibling sync.Mutex/RWMutex field", muName)
			continue
		}
		for _, name := range field.Names {
			if obj := pkg.Info.Defs[name]; obj != nil && obj != muObj {
				guards[obj] = &guard{obj: obj, mu: muObj}
			}
		}
	}
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex (possibly via
// pointer).
func isMutexType(t types.Type) bool {
	named := namedOf(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// lockingInFunc reports guarded accesses in one function that does not lock
// the corresponding mutex anywhere in its body.
func lockingInFunc(prog *Program, pkg *Package, fd *ast.FuncDecl, guards map[types.Object]*guard) []Diagnostic {
	name := fd.Name.Name
	if len(name) > 6 && name[len(name)-6:] == "Locked" {
		return nil // the caller holds the lock by convention
	}
	locked := lockedMutexes(pkg, fd.Body)
	skip := skippedIdents(fd)
	var diags []Diagnostic
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var obj types.Object
		switch node := n.(type) {
		case *ast.SelectorExpr:
			if sel, ok := pkg.Info.Selections[node]; ok && sel.Kind() == types.FieldVal {
				obj = sel.Obj()
			}
		case *ast.Ident:
			if skip[node] {
				return true
			}
			obj = pkg.Info.Uses[node]
		}
		g, guarded := guards[obj]
		if !guarded || locked[g.mu] {
			return true
		}
		diags = append(diags, Diagnostic{
			Pos:  prog.Fset.Position(n.Pos()),
			Rule: "locking",
			Msg: fmt.Sprintf("%s is guarded by %s, but %s never locks it (lock the mutex or rename the function *Locked)",
				g.obj.Name(), g.mu.Name(), name),
		})
		return true
	})
	return diags
}

// skippedIdents collects identifiers the Ident branch must not treat as
// accesses: composite-literal field keys (`T{field: v}` initialises a value
// nothing else can see yet) and the Sel of selector expressions (field
// accesses are handled once, at the SelectorExpr level).
func skippedIdents(fd *ast.FuncDecl) map[*ast.Ident]bool {
	skip := make(map[*ast.Ident]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CompositeLit:
			for _, elt := range node.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						skip[id] = true
					}
				}
			}
		case *ast.SelectorExpr:
			skip[node.Sel] = true
		}
		return true
	})
	return skip
}

// lockedMutexes returns the set of mutex objects the function body locks
// (Lock or RLock on a field or package-level mutex, resolved as lockorder
// resolves a lock's class).
func lockedMutexes(pkg *Package, body ast.Node) map[types.Object]bool {
	locked := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		if mu := mutexClass(pkg, sel.X); mu != nil {
			locked[mu] = true
		}
		return true
	})
	return locked
}
