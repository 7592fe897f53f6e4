package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// runLockOrder enforces the module's lock discipline beyond single-mutex
// depth: no mutex may be held across a blocking operation (channel ops,
// select without default, time.Sleep, WaitGroup/Cond waits, fsync, HTTP
// round-trips, dial/listen), a mutex already held may not be locked again,
// and the lock-acquisition graph over lock *classes* (a struct's mutex field
// is one class across all instances) must be acyclic.
//
// The walker tracks held-lock sets through sequential statement flow —
// branches fork a copy of the set and the fall-through state is the
// intersection of non-terminating branch exits — so unlock-in-branch and
// unlock-then-select patterns (singleflight's flightGroup.do) resolve
// without false positives. Blocking-ness propagates transitively through the
// static call graph only: calls through interfaces and func values are not
// expanded, so a blocking implementation reached solely through an interface
// seam must be caught (and justified) at the implementation's own lock
// sites.
func runLockOrder(_ *Config, prog *Program) []Diagnostic {
	lo := newLockOrder(prog)
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		for _, body := range funcBodies(pkg) {
			w := &loWalker{lo: lo, pkg: pkg}
			w.walkStmts(body.List, map[string]heldLock{})
			diags = append(diags, w.diags...)
		}
	}
	return append(diags, lo.cycles()...)
}

// heldLock is one currently-held mutex instance: its lock class (the
// declared field or var object) plus the receiver expression that names it.
type heldLock struct {
	class types.Object
	pos   token.Pos
}

// declBody locates one declared function's body for cross-package walks.
type declBody struct {
	pkg  *Package
	body *ast.BlockStmt
}

// lockOrder holds the whole-program state: declared bodies, blocking-ness
// and acquired-lock-class memos, and the lock-order edge graph.
type lockOrder struct {
	prog  *Program
	decls map[*types.Func]*declBody
	// blocking memoises each function's blocking reason ("" = non-blocking);
	// blockVisiting guards recursion.
	blocking      map[*types.Func]string
	blockVisiting map[*types.Func]bool
	// acquires memoises the lock classes a function may acquire anywhere in
	// its static call closure.
	acquires    map[*types.Func]map[types.Object]bool
	acqVisiting map[*types.Func]bool
	// edges[a][b] records the first site that acquired class b while holding
	// class a.
	edges map[types.Object]map[types.Object]token.Pos
}

func newLockOrder(prog *Program) *lockOrder {
	return &lockOrder{
		prog:          prog,
		decls:         declIndex(prog),
		blocking:      make(map[*types.Func]string),
		blockVisiting: make(map[*types.Func]bool),
		acquires:      make(map[*types.Func]map[types.Object]bool),
		acqVisiting:   make(map[*types.Func]bool),
		edges:         make(map[types.Object]map[types.Object]token.Pos),
	}
}

// declIndex maps every declared module function to its body.
func declIndex(prog *Program) map[*types.Func]*declBody {
	idx := make(map[*types.Func]*declBody)
	for _, pkg := range prog.Pkgs {
		for _, fd := range funcDecls(pkg) {
			if f, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				idx[f] = &declBody{pkg: pkg, body: fd.Body}
			}
		}
	}
	return idx
}

// funcBodies returns every function body in the package: declared functions
// plus each function literal as its own region. A literal's statements run
// on another goroutine or at another time than the enclosing lock region, so
// each is walked independently with an empty held set.
func funcBodies(pkg *Package) []*ast.BlockStmt {
	var out []*ast.BlockStmt
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.FuncDecl:
				if node.Body != nil {
					out = append(out, node.Body)
				}
			case *ast.FuncLit:
				out = append(out, node.Body)
			}
			return true
		})
	}
	return out
}

// mutexClass resolves the receiver of a Lock/Unlock call to the declared
// mutex object (a struct field or package var of type sync.Mutex/RWMutex).
// The field object is the lock *class*: s.shards[i].mu and s.shards[j].mu
// share it.
func mutexClass(pkg *Package, recv ast.Expr) types.Object {
	var obj types.Object
	switch r := ast.Unparen(recv).(type) {
	case *ast.SelectorExpr:
		if fs, ok := pkg.Info.Selections[r]; ok && fs.Kind() == types.FieldVal {
			obj = fs.Obj()
		}
	case *ast.Ident:
		obj = pkg.Info.Uses[r]
	}
	if obj == nil || !isMutexType(obj.Type()) {
		return nil
	}
	return obj
}

// blockingReason returns why f blocks ("" when it does not), following
// static calls transitively.
func (lo *lockOrder) blockingReason(f *types.Func) string {
	if r, ok := lo.blocking[f]; ok {
		return r
	}
	if lo.blockVisiting[f] {
		return ""
	}
	db, ok := lo.decls[f]
	if !ok {
		return "" // no body in the module; stdlib primitives are matched at call sites
	}
	lo.blockVisiting[f] = true
	defer delete(lo.blockVisiting, f)
	reason := ""
	ast.Inspect(db.body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false // runs on another goroutine / at another time
		}
		if r, ok := directBlockReason(db.pkg, n); ok {
			reason = r
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			for _, callee := range callees(db.pkg, call) {
				if r := lo.blockingReason(callee); r != "" {
					reason = fmt.Sprintf("call to %s (%s)", callee.Name(), r)
					return false
				}
			}
		}
		return true
	})
	lo.blocking[f] = reason
	return reason
}

// directBlockReason reports whether node n is itself a blocking primitive.
func directBlockReason(pkg *Package, n ast.Node) (string, bool) {
	switch node := n.(type) {
	case *ast.SendStmt:
		return "channel send", true
	case *ast.UnaryExpr:
		if node.Op == token.ARROW {
			return "channel receive", true
		}
	case *ast.SelectStmt:
		for _, c := range node.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				return "", false // select with default: non-blocking poll
			}
		}
		return "select", true
	case *ast.RangeStmt:
		if tv, ok := pkg.Info.Types[node.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				return "range over channel", true
			}
		}
	case *ast.CallExpr:
		if path, name, ok := pkgFuncCall(pkg, node); ok {
			switch {
			case path == "time" && name == "Sleep":
				return "time.Sleep", true
			case path == "net" && (strings.HasPrefix(name, "Dial") || strings.HasPrefix(name, "Listen")):
				return "net." + name, true
			case path == "net/http" && (strings.HasPrefix(name, "ListenAndServe") || name == "Serve" ||
				name == "Get" || name == "Post" || name == "PostForm" || name == "Head"):
				return "http." + name, true
			}
		}
		if sel, ok := node.Fun.(*ast.SelectorExpr); ok {
			if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
				if named := namedOf(s.Recv()); named != nil && named.Obj().Pkg() != nil {
					rp, rn, m := named.Obj().Pkg().Path(), named.Obj().Name(), sel.Sel.Name
					switch {
					case rp == "sync" && rn == "WaitGroup" && m == "Wait":
						return "WaitGroup.Wait", true
					case rp == "sync" && rn == "Cond" && m == "Wait":
						return "Cond.Wait", true
					case rp == "os" && rn == "File" && m == "Sync":
						return "fsync", true
					case rp == "net/http" && rn == "Client" &&
						(m == "Do" || m == "Get" || m == "Post" || m == "PostForm" || m == "Head"):
						return "http.Client round-trip", true
					case rp == "net" && (rn == "Conn" || rn == "TCPConn") && (m == "Read" || m == "Write"):
						// A hand-written round trip (server.upstream) blocks on
						// the socket exactly as http.Client.Do does.
						return "net.Conn " + m, true
					}
				}
			}
		}
	}
	return "", false
}

// loWalker walks one function body's statements tracking the held-lock set.
type loWalker struct {
	lo    *lockOrder
	pkg   *Package
	diags []Diagnostic
}

func (w *loWalker) report(pos token.Pos, format string, args ...any) {
	w.diags = append(w.diags, Diagnostic{
		Pos:  w.lo.prog.Fset.Position(pos),
		Rule: "lockorder",
		Msg:  fmt.Sprintf(format, args...),
	})
}

// heldNames renders the held set deterministically for messages.
func heldNames(held map[string]heldLock) string {
	names := make([]string, 0, len(held))
	for name := range held {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func copyHeld(held map[string]heldLock) map[string]heldLock {
	out := make(map[string]heldLock, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// intersectHeld keeps only instances held in both maps — the fall-through
// state after a branch.
func intersectHeld(a, b map[string]heldLock) map[string]heldLock {
	out := make(map[string]heldLock)
	for k, v := range a {
		if _, ok := b[k]; ok {
			out[k] = v
		}
	}
	return out
}

// walkStmts processes stmts sequentially, mutating held as Lock/Unlock calls
// appear, and reports blocking operations or re-locks while held is
// non-empty. It returns the fall-through held set and whether control always
// leaves the enclosing block (return/branch).
func (w *loWalker) walkStmts(stmts []ast.Stmt, held map[string]heldLock) (map[string]heldLock, bool) {
	for _, stmt := range stmts {
		var terminated bool
		held, terminated = w.walkStmt(stmt, held)
		if terminated {
			return held, true
		}
	}
	return held, false
}

func (w *loWalker) walkStmt(stmt ast.Stmt, held map[string]heldLock) (map[string]heldLock, bool) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if w.lockCall(s.X, held) {
			return held, false
		}
		w.scanBlocking(s.X, held)
	case *ast.DeferStmt:
		// defer mu.Unlock() pins the lock to function exit: the instance
		// simply stays held for the rest of the walk. Any other deferred call
		// is approximated as running under the current held set.
		if sel, ok := s.Call.Fun.(*ast.SelectorExpr); ok &&
			(sel.Sel.Name == "Unlock" || sel.Sel.Name == "RUnlock") && mutexClass(w.pkg, sel.X) != nil {
			return held, false
		}
		w.scanBlocking(s.Call, held)
	case *ast.GoStmt:
		// The spawned goroutine does not inherit this goroutine's held set;
		// its body is walked separately via funcBodies.
	case *ast.AssignStmt, *ast.ReturnStmt, *ast.IncDecStmt, *ast.SendStmt, *ast.DeclStmt:
		w.scanBlocking(stmt, held)
		if _, ok := stmt.(*ast.ReturnStmt); ok {
			return held, true
		}
	case *ast.BranchStmt:
		return held, true
	case *ast.BlockStmt:
		return w.walkStmts(s.List, held)
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, held)
	case *ast.IfStmt:
		if s.Init != nil {
			held, _ = w.walkStmt(s.Init, held)
		}
		w.scanBlocking(s.Cond, held)
		bodyOut, bodyTerm := w.walkStmts(s.Body.List, copyHeld(held))
		elseOut, elseTerm := held, false
		if s.Else != nil {
			elseOut, elseTerm = w.walkStmt(s.Else, copyHeld(held))
		}
		switch {
		case bodyTerm && elseTerm:
			return held, s.Else != nil
		case bodyTerm:
			return elseOut, false
		case elseTerm:
			return bodyOut, false
		default:
			return intersectHeld(bodyOut, elseOut), false
		}
	case *ast.ForStmt:
		if s.Init != nil {
			held, _ = w.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			w.scanBlocking(s.Cond, held)
		}
		if s.Post != nil {
			w.scanBlocking(s.Post, held)
		}
		// The body is assumed lock-balanced per iteration: walk it against a
		// copy and keep the pre-loop state as the fall-through.
		w.walkStmts(s.Body.List, copyHeld(held))
	case *ast.RangeStmt:
		if r, ok := directBlockReason(w.pkg, s); ok && len(held) > 0 {
			w.report(s.Pos(), "%s held across %s; a lock must not be held across a blocking operation", heldNames(held), r)
		}
		w.scanBlocking(s.X, held)
		w.walkStmts(s.Body.List, copyHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			held, _ = w.walkStmt(s.Init, held)
		}
		if s.Tag != nil {
			w.scanBlocking(s.Tag, held)
		}
		return w.walkClauses(s.Body.List, held)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			held, _ = w.walkStmt(s.Init, held)
		}
		w.scanBlocking(s.Assign, held)
		return w.walkClauses(s.Body.List, held)
	case *ast.SelectStmt:
		if r, ok := directBlockReason(w.pkg, s); ok && len(held) > 0 {
			w.report(s.Pos(), "%s held across %s; a lock must not be held across a blocking operation", heldNames(held), r)
		}
		return w.walkClauses(s.Body.List, held)
	}
	return held, false
}

// walkClauses walks switch/select clause bodies against forked held sets and
// merges the non-terminating exits (intersection, pre-state included for the
// no-clause-taken path).
func (w *loWalker) walkClauses(clauses []ast.Stmt, held map[string]heldLock) (map[string]heldLock, bool) {
	out := copyHeld(held)
	for _, c := range clauses {
		var body []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				w.scanBlocking(e, held)
			}
			body = cc.Body
		case *ast.CommClause:
			if cc.Comm != nil {
				_, _ = w.walkStmt(cc.Comm, copyHeld(held))
			}
			body = cc.Body
		}
		if clauseOut, term := w.walkStmts(body, copyHeld(held)); !term {
			out = intersectHeld(out, clauseOut)
		}
	}
	return out, false
}

// lockCall handles mu.Lock/RLock/Unlock/RUnlock expression statements,
// updating held and the lock-order edge graph. It reports double-locks of
// one instance and records class edges for every lock acquired while others
// are held.
func (w *loWalker) lockCall(expr ast.Expr, held map[string]heldLock) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	name := sel.Sel.Name
	if name != "Lock" && name != "RLock" && name != "Unlock" && name != "RUnlock" {
		return false
	}
	class := mutexClass(w.pkg, sel.X)
	if class == nil {
		return false
	}
	key := types.ExprString(sel.X)
	switch name {
	case "Lock", "RLock":
		if _, dup := held[key]; dup {
			w.report(call.Pos(), "%s locked while already held (deadlock)", key)
			return true
		}
		for _, h := range held {
			if h.class != class {
				w.lo.addEdge(h.class, class, call.Pos())
			}
		}
		held[key] = heldLock{class: class, pos: call.Pos()}
	case "Unlock", "RUnlock":
		delete(held, key)
	}
	return true
}

// scanBlocking reports blocking primitives and calls to (transitively)
// blocking functions inside node while held is non-empty, and records
// lock-order edges for lock classes acquired inside callees.
func (w *loWalker) scanBlocking(node ast.Node, held map[string]heldLock) {
	if len(held) == 0 || node == nil {
		return
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		}
		if r, ok := directBlockReason(w.pkg, n); ok {
			w.report(n.Pos(), "%s held across %s; a lock must not be held across a blocking operation", heldNames(held), r)
			return true
		}
		if call, ok := n.(*ast.CallExpr); ok {
			for _, callee := range callees(w.pkg, call) {
				if r := w.lo.blockingReason(callee); r != "" {
					w.report(call.Pos(), "%s held across call to %s, which blocks (%s)", heldNames(held), callee.Name(), r)
				}
				for class := range w.lo.acquiresOf(callee) {
					for _, h := range held {
						if h.class != class {
							w.lo.addEdge(h.class, class, call.Pos())
						}
					}
				}
			}
		}
		return true
	})
}

// acquiresOf returns the lock classes f may acquire anywhere in its static
// call closure (memoised).
func (lo *lockOrder) acquiresOf(f *types.Func) map[types.Object]bool {
	if acq, ok := lo.acquires[f]; ok {
		return acq
	}
	if lo.acqVisiting[f] {
		return nil
	}
	db, ok := lo.decls[f]
	if !ok {
		return nil
	}
	lo.acqVisiting[f] = true
	defer delete(lo.acqVisiting, f)
	acq := make(map[types.Object]bool)
	ast.Inspect(db.body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok &&
			(sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock") {
			if class := mutexClass(db.pkg, sel.X); class != nil {
				acq[class] = true
				return true
			}
		}
		for _, callee := range callees(db.pkg, call) {
			for class := range lo.acquiresOf(callee) {
				acq[class] = true
			}
		}
		return true
	})
	lo.acquires[f] = acq
	return acq
}

func (lo *lockOrder) addEdge(from, to types.Object, pos token.Pos) {
	if lo.edges[from] == nil {
		lo.edges[from] = make(map[types.Object]token.Pos)
	}
	if _, ok := lo.edges[from][to]; !ok {
		lo.edges[from][to] = pos
	}
}

// cycles reports each cycle in the lock-class order graph once, at the edge
// that closes it.
func (lo *lockOrder) cycles() []Diagnostic {
	classKey := func(o types.Object) string {
		p := lo.prog.Fset.Position(o.Pos())
		return fmt.Sprintf("%s:%d:%s", filepath.Base(p.Filename), p.Line, o.Name())
	}
	nodes := make([]types.Object, 0, len(lo.edges))
	for n := range lo.edges {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return classKey(nodes[i]) < classKey(nodes[j]) })

	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[types.Object]int)
	var stack []types.Object
	seen := make(map[string]bool)
	var diags []Diagnostic

	var visit func(n types.Object)
	visit = func(n types.Object) {
		color[n] = grey
		stack = append(stack, n)
		succs := make([]types.Object, 0, len(lo.edges[n]))
		for s := range lo.edges[n] {
			succs = append(succs, s)
		}
		sort.Slice(succs, func(i, j int) bool { return classKey(succs[i]) < classKey(succs[j]) })
		for _, s := range succs {
			switch color[s] {
			case white:
				visit(s)
			case grey:
				// Back edge n→s closes a cycle s ... n s.
				start := 0
				for i, m := range stack {
					if m == s {
						start = i
						break
					}
				}
				cycle := append(append([]types.Object{}, stack[start:]...), s)
				keys := make([]string, len(cycle)-1)
				names := make([]string, len(cycle))
				for i, m := range cycle {
					names[i] = m.Name()
					if i < len(keys) {
						keys[i] = classKey(m)
					}
				}
				sort.Strings(keys)
				canon := strings.Join(keys, "|")
				if !seen[canon] {
					seen[canon] = true
					diags = append(diags, Diagnostic{
						Pos:  lo.prog.Fset.Position(lo.edges[n][s]),
						Rule: "lockorder",
						Msg: fmt.Sprintf("lock-order cycle: %s; acquire these mutexes in one global order",
							strings.Join(names, " -> ")),
					})
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[n] = black
	}
	for _, n := range nodes {
		if color[n] == white {
			visit(n)
		}
	}
	return diags
}
