package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// transportPkgs are the packages whose locking discipline DESIGN.md §7
// documents: the action mutex mu is outermost and the mailbox mutex mbMu,
// which also guards each group's fault-plane injector, inner. Since the
// socket transports share one engine, that is where both live.
var transportPkgs = []string{
	"internal/transport/engine",
}

// lockRank orders the documented mutexes. Acquisitions must happen in
// increasing rank; unranked mutexes (gmu, connMu, ...) are out of scope.
// The engine declares no injMu; its rank is the analyzer fixture's.
var lockRank = map[string]int{"mu": 1, "mbMu": 2, "injMu": 3}

// LockOrder enforces the socket engine's documented mu → mbMu
// acquisition order, rejects re-acquisition of a held rank, and forbids
// taking any ranked mutex inside an atomic-section callback (a func
// literal handed to a Do or Submit method: Do bodies, and a request's
// condition and completion, wherever the waiter registry runs them, run
// under mu).
// A TryLock never waits, so it may take any rank whatever is held (the
// in-memory link's settle tries a receiver's mu under the sender's);
// the mutex it took is held in the branch it guards, or past a branch
// that returns when it failed (if !mu.TryLock() { return }), and a
// blocking Lock of the same rank is still rejected there. A section
// ends with x.release(), the engine's unlock of mu, which may retake mu
// that way to drain what its section was owed.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "enforce the documented mu → mbMu lock order in the socket engine",
	Run:  runLockOrder,
}

func runLockOrder(pass *Pass) error {
	if !pathMatches(pass.Path, transportPkgs) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			walkLocks(pass, fd.Body.List, map[string]token.Pos{})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			checkAtomicCallback(pass, call)
			return true
		})
	}
	return nil
}

// walkLocks tracks held ranked mutexes through a statement list in
// lexical order. Branches are analyzed against a snapshot of the held
// set and their acquisitions are not propagated past the branch — a
// deliberate under-approximation that keeps the checker free of false
// positives from unbalanced control flow.
func walkLocks(pass *Pass, stmts []ast.Stmt, held map[string]token.Pos) {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			applyLockExpr(pass, s.X, held)
		case *ast.DeferStmt:
			// defer x.Unlock() keeps x held to function end: no change.
			// Nested func literals start lock-free.
			walkFuncLits(pass, s.Call)
		case *ast.GoStmt:
			walkFuncLits(pass, s.Call)
		case *ast.BlockStmt:
			walkLocks(pass, s.List, held)
		case *ast.IfStmt:
			if s.Init != nil {
				walkLocks(pass, []ast.Stmt{s.Init}, held)
			}
			body := snapshot(held)
			for _, name := range tryLocked(pass, s.Cond) {
				body[name] = s.Cond.Pos()
			}
			walkLocks(pass, s.Body.List, body)
			if s.Else != nil {
				walkLocks(pass, []ast.Stmt{s.Else}, snapshot(held))
			} else if leaves(s.Body) {
				for _, name := range tryFailed(pass, s.Cond) {
					held[name] = s.Cond.Pos()
				}
			}
		case *ast.ForStmt:
			walkLocks(pass, s.Body.List, snapshot(held))
		case *ast.RangeStmt:
			walkLocks(pass, s.Body.List, snapshot(held))
		case *ast.SwitchStmt:
			walkCases(pass, s.Body, held)
		case *ast.TypeSwitchStmt:
			walkCases(pass, s.Body, held)
		case *ast.SelectStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					walkLocks(pass, cc.Body, snapshot(held))
				}
			}
		case *ast.LabeledStmt:
			walkLocks(pass, []ast.Stmt{s.Stmt}, held)
		default:
			ast.Inspect(stmt, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					walkLocks(pass, fl.Body.List, map[string]token.Pos{})
					return false
				}
				return true
			})
		}
	}
}

// tryLocked returns the ranked mutexes that TryLock calls in the
// top-level && chain of an if condition took: all of them are held
// wherever the branch runs, and none is held in an else.
func tryLocked(pass *Pass, cond ast.Expr) []string {
	switch e := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		if e.Op == token.LAND {
			return append(tryLocked(pass, e.X), tryLocked(pass, e.Y)...)
		}
	case *ast.CallExpr:
		if name, op := rankedLockCall(pass, e); op == "TryLock" || op == "TryRLock" {
			return []string{name}
		}
	}
	return nil
}

// tryFailed returns the ranked mutexes whose failed TryLock, negated, is
// one of the top-level || alternatives of an if condition: past a branch
// that leaves when the condition holds, each of those TryLocks succeeded.
func tryFailed(pass *Pass, cond ast.Expr) []string {
	switch e := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		if e.Op == token.LOR {
			return append(tryFailed(pass, e.X), tryFailed(pass, e.Y)...)
		}
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			if call, ok := ast.Unparen(e.X).(*ast.CallExpr); ok {
				if name, op := rankedLockCall(pass, call); op == "TryLock" || op == "TryRLock" {
					return []string{name}
				}
			}
		}
	}
	return nil
}

// leaves reports whether a branch ends by leaving the statement list it
// is in: a return, or a break, continue or goto.
func leaves(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	switch body.List[len(body.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	}
	return false
}

func walkCases(pass *Pass, body *ast.BlockStmt, held map[string]token.Pos) {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			walkLocks(pass, cc.Body, snapshot(held))
		}
	}
}

func snapshot(held map[string]token.Pos) map[string]token.Pos {
	c := make(map[string]token.Pos, len(held))
	for k, v := range held {
		c[k] = v
	}
	return c
}

// applyLockExpr interprets one expression statement: Lock/Unlock calls
// on ranked mutexes mutate the held set, and func literals inside the
// expression are walked lock-free.
func applyLockExpr(pass *Pass, e ast.Expr, held map[string]token.Pos) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return
	}
	walkFuncLits(pass, call)
	name, op := rankedLockCall(pass, call)
	if name == "" && isRelease(pass, call) {
		name, op = "mu", "Unlock"
	}
	if name == "" {
		return
	}
	switch op {
	case "Lock", "RLock":
		for h := range held {
			if lockRank[h] > lockRank[name] {
				pass.Reportf(call.Pos(), "acquires %s while holding %s: the documented transport order is mu → mbMu", name, h)
			} else if h == name {
				pass.Reportf(call.Pos(), "acquires %s while already holding it", name)
			}
		}
		held[name] = call.Pos()
	case "Unlock", "RUnlock":
		delete(held, name)
	}
}

// walkFuncLits analyzes func-literal arguments of a call with a fresh
// (empty) held set: a goroutine or stored closure runs on its own stack.
func walkFuncLits(pass *Pass, call *ast.CallExpr) {
	for _, arg := range call.Args {
		if fl, ok := arg.(*ast.FuncLit); ok {
			walkLocks(pass, fl.Body.List, map[string]token.Pos{})
		}
	}
	if fl, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		walkLocks(pass, fl.Body.List, map[string]token.Pos{})
	}
}

// rankedLockCall recognizes x.<mu>.<Lock|Unlock|RLock|RUnlock|TryLock|TryRLock>() where
// <mu> is one of the ranked mutex fields with a sync.Mutex or
// sync.RWMutex type, returning the field name and the operation.
func rankedLockCall(pass *Pass, call *ast.CallExpr) (field, op string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
	default:
		return "", ""
	}
	name := baseName(sel.X)
	if _, ranked := lockRank[name]; !ranked {
		return "", ""
	}
	if !isSyncMutex(pass.Info.TypeOf(sel.X)) {
		return "", ""
	}
	return name, sel.Sel.Name
}

// isRelease recognizes x.release(): the engine ends a section by calling
// release on a value whose mu field is a sync.Mutex, and release unlocks
// it.
func isRelease(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "release" || len(call.Args) != 0 {
		return false
	}
	t := pass.Info.TypeOf(sel.X)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); f.Name() == "mu" && isSyncMutex(f.Type()) {
			return true
		}
	}
	return false
}

func isSyncMutex(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "sync" &&
		(n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex")
}

// atomicEntry names the methods whose func-literal arguments run in an
// atomic section: Do bodies, and the condition and completion a Submit
// hands to the waiter registry (core.Waiters.Submit), which runs both
// under the action mutex and nowhere else.
var atomicEntry = map[string]bool{"Do": true, "Submit": true}

// checkAtomicCallback flags ranked-mutex acquisition inside a func
// literal passed to an atomic-section entry point: the callback already
// runs under the action mutex, so any ranked Lock in it either
// self-deadlocks (mu) or runs socket-side work under a lock the callback
// must not know about.
func checkAtomicCallback(pass *Pass, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !atomicEntry[sel.Sel.Name] {
		return
	}
	for _, arg := range call.Args {
		fl, ok := arg.(*ast.FuncLit)
		if !ok {
			continue
		}
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			inner, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, op := rankedLockCall(pass, inner); name != "" && (op == "Lock" || op == "RLock") {
				pass.Reportf(inner.Pos(), "acquires %s inside an atomic-section callback: %s already runs it under mu; hoist the locking out of the callback", name, sel.Sel.Name)
			}
			return true
		})
	}
}
