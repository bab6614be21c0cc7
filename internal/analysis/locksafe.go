package analysis

// locksafe enforces the project's deadlock discipline: nothing that can
// block on another goroutine may run while a sync.Mutex/RWMutex is held.
// The concrete hazard in this codebase: transport.Network.mu is taken on
// the executor goroutines' message path (lookup, loss injection), so a
// goroutine that holds it while waiting on an executor — Host.call/exec,
// a channel operation, Env.Send/deliver — can deadlock the whole
// overlay. transport.Network.Close shows the required shape: copy under
// the lock, release, then do the blocking work.
//
// Critical sections are tracked per function body in source order,
// branches merge by intersection, and function literals are analyzed as
// their own (lock-free) contexts — deliberately biased toward false
// negatives. Calls under a held lock are judged interprocedurally: a
// callee inside the loaded set is checked against its computed blocking
// fact (chan ops, selects, and transitive blocking calls; see facts.go)
// and the offending call path is printed, which both catches blocking
// work hidden behind helpers and retires the name heuristic for
// callees proven non-blocking. Unknown/out-of-set callees still fall
// back to the blocking-name heuristic.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// blockingNames are callee names treated as potentially blocking on
// another goroutine. call/exec/deliver are this repo's executor entry
// points; Send/SendTo/HandleMessage are the transport surface; Shutdown
// covers graceful stops such as http.Server.Shutdown; Wait and Sleep
// cover sync.WaitGroup/sync.Cond/time.Sleep style waits.
var blockingNames = map[string]bool{
	"Send":          true,
	"SendTo":        true,
	"call":          true,
	"exec":          true,
	"deliver":       true,
	"Call":          true,
	"Shutdown":      true,
	"HandleMessage": true,
	"Wait":          true,
	"Sleep":         true,
}

// LockSafe forbids blocking operations while a mutex is held.
var LockSafe = &Analyzer{
	Name: "locksafe",
	Doc: "forbid transport sends, executor calls, channel operations and other " +
		"blocking calls — including ones reached through helper chains, per the " +
		"call-graph blocking facts — while a sync.Mutex/RWMutex is held (copy " +
		"under the lock, release, then block; escape hatch: //pwlint:allow locksafe)",
	Run: runLockSafe,
}

func runLockSafe(pass *Pass) error {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					w := &lockWalker{pass: pass}
					w.walkBlock(fn.Body, nil)
				}
			case *ast.FuncLit:
				// Function literals execute in their own context; walked
				// here with an empty lock set, skipped by the enclosing
				// function's scan.
				w := &lockWalker{pass: pass}
				w.walkBlock(fn.Body, nil)
			}
			return true
		})
	}
	return nil
}

// heldLock is one currently held mutex, identified by the canonical
// source text of its receiver expression ("n.mu", "h.net.mu").
type heldLock struct {
	key string
}

type lockWalker struct {
	pass *Pass
}

// walkBlock processes a statement list in source order, returning the
// lock set held after it. terminated reports whether the block ends in a
// return/branch/panic, in which case the caller discards the result.
func (w *lockWalker) walkBlock(b *ast.BlockStmt, held []heldLock) (after []heldLock, terminated bool) {
	return w.walkStmts(b.List, held)
}

func (w *lockWalker) walkStmts(stmts []ast.Stmt, held []heldLock) (after []heldLock, terminated bool) {
	held = append([]heldLock(nil), held...)
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if key, op, ok := w.mutexOp(s.X); ok {
				switch op {
				case "Lock", "RLock":
					held = append(held, heldLock{key: key})
				case "Unlock", "RUnlock":
					held = removeLock(held, key)
				}
				continue
			}
			w.scan(s, held)
		case *ast.DeferStmt:
			// A deferred Unlock keeps the lock held to the end of the
			// function; any other deferred work is out of scope (it runs
			// at return time).
			continue
		case *ast.GoStmt:
			// Starting a goroutine does not block the lock holder.
			continue
		case *ast.BlockStmt:
			inner, term := w.walkBlock(s, held)
			if !term {
				held = inner
			}
		case *ast.IfStmt:
			if s.Init != nil {
				w.scan(s.Init, held)
			}
			w.scan(s.Cond, held)
			bodyHeld, bodyTerm := w.walkBlock(s.Body, held)
			elseHeld, elseTerm := held, false
			if s.Else != nil {
				switch e := s.Else.(type) {
				case *ast.BlockStmt:
					elseHeld, elseTerm = w.walkBlock(e, held)
				case *ast.IfStmt:
					elseHeld, elseTerm = w.walkStmts([]ast.Stmt{e}, held)
				}
			}
			held = mergeBranches(held, []branchResult{
				{bodyHeld, bodyTerm},
				{elseHeld, elseTerm},
			})
		case *ast.ForStmt:
			if s.Init != nil {
				w.scan(s.Init, held)
			}
			if s.Cond != nil {
				w.scan(s.Cond, held)
			}
			bodyHeld, bodyTerm := w.walkBlock(s.Body, held)
			held = mergeBranches(held, []branchResult{{bodyHeld, bodyTerm}, {held, false}})
		case *ast.RangeStmt:
			w.scan(s.X, held)
			bodyHeld, bodyTerm := w.walkBlock(s.Body, held)
			held = mergeBranches(held, []branchResult{{bodyHeld, bodyTerm}, {held, false}})
		case *ast.SwitchStmt, *ast.TypeSwitchStmt:
			var results []branchResult
			var body *ast.BlockStmt
			if sw, ok := s.(*ast.SwitchStmt); ok {
				if sw.Init != nil {
					w.scan(sw.Init, held)
				}
				if sw.Tag != nil {
					w.scan(sw.Tag, held)
				}
				body = sw.Body
			} else {
				ts := s.(*ast.TypeSwitchStmt)
				w.scan(ts.Assign, held)
				body = ts.Body
			}
			for _, clause := range body.List {
				cc := clause.(*ast.CaseClause)
				h, term := w.walkStmts(cc.Body, held)
				results = append(results, branchResult{h, term})
			}
			results = append(results, branchResult{held, false}) // no case taken
			held = mergeBranches(held, results)
		case *ast.SelectStmt:
			if len(held) > 0 {
				w.pass.Reportf(s.Pos(), "select (a blocking channel operation) while %s is held", held[len(held)-1].key)
			}
			for _, clause := range s.Body.List {
				cc := clause.(*ast.CommClause)
				if h, term := w.walkStmts(cc.Body, held); !term {
					_ = h // branch states of a select are not merged; the select itself was the finding
				}
			}
		case *ast.ReturnStmt, *ast.BranchStmt:
			w.scan(s, held)
			return held, true
		case *ast.LabeledStmt:
			inner, term := w.walkStmts([]ast.Stmt{s.Stmt}, held)
			if term {
				return inner, true
			}
			held = inner
		default:
			w.scan(s, held)
		}
	}
	return held, false
}

type branchResult struct {
	held       []heldLock
	terminated bool
}

// mergeBranches intersects the lock sets of the non-terminating
// branches; a lock is held after the join only if every reachable path
// still holds it. All-terminating joins keep the entry state (the code
// after them is unreachable on those paths).
func mergeBranches(entry []heldLock, results []branchResult) []heldLock {
	var live [][]heldLock
	for _, r := range results {
		if !r.terminated {
			live = append(live, r.held)
		}
	}
	if len(live) == 0 {
		return entry
	}
	out := live[0]
	for _, other := range live[1:] {
		out = intersectLocks(out, other)
	}
	return out
}

func intersectLocks(a, b []heldLock) []heldLock {
	var out []heldLock
	for _, l := range a {
		for _, m := range b {
			if l.key == m.key {
				out = append(out, l)
				break
			}
		}
	}
	return out
}

func removeLock(held []heldLock, key string) []heldLock {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i].key == key {
			return append(held[:i:i], held[i+1:]...)
		}
	}
	return held
}

// scan reports blocking operations inside node while locks are held.
// Function literals are skipped: their bodies run in their own context
// and are walked separately.
func (w *lockWalker) scan(node ast.Node, held []heldLock) {
	if len(held) == 0 || node == nil {
		return
	}
	lock := held[len(held)-1]
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			w.pass.Reportf(n.Arrow, "channel send while %s is held", lock.key)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.pass.Reportf(n.Pos(), "channel receive while %s is held", lock.key)
			}
		case *ast.CallExpr:
			if w.blockingViaGraph(n, lock) {
				return true
			}
			if name, ok := w.blockingCallee(n); ok {
				w.pass.Reportf(n.Pos(), "call to blocking %s while %s is held (release the lock first)", name, lock.key)
			}
		}
		return true
	})
}

// blockingViaGraph judges a call under a held lock through the fact
// engine. It returns true when the engine had a verdict (an in-set
// static callee, or an interface call with a blocking candidate), in
// which case the name heuristic is skipped — a callee named Send that
// provably never blocks no longer needs an allow. Out-of-set and
// dynamic callees return false and fall through to the heuristic.
func (w *lockWalker) blockingViaGraph(call *ast.CallExpr, lock heldLock) bool {
	g := w.pass.Prog.graph()
	cs, ok := g.resolveCall(w.pass.Pkg, nil, call)
	if !ok {
		return false
	}
	switch cs.kind {
	case callStatic:
		n := g.nodes[cs.static]
		if n == nil {
			return false
		}
		if n.fact[factBlock] {
			w.pass.ReportPathf(call.Pos(), g.path(cs.static, factBlock),
				"call to %s may block while %s is held (release the lock first)", cs.static, lock.key)
		}
		return true
	case callInterface:
		for _, cand := range cs.candidates {
			if n := g.nodes[cand]; n != nil && n.fact[factBlock] {
				w.pass.ReportPathf(call.Pos(), g.path(cand, factBlock),
					"call to %s (resolving to %s) may block while %s is held (release the lock first)",
					cs.static, cand, lock.key)
				return true
			}
		}
	}
	return false
}

// blockingCallee reports whether the call's resolved callee is in the
// blocking set, returning a printable name.
func (w *lockWalker) blockingCallee(call *ast.CallExpr) (string, bool) {
	var ident *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		ident = fun.Sel
	case *ast.Ident:
		ident = fun
	default:
		return "", false
	}
	obj, ok := w.pass.Pkg.Info.Uses[ident].(*types.Func)
	if !ok || !blockingNames[obj.Name()] {
		return "", false
	}
	if pkg := obj.Pkg(); pkg != nil {
		if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() == nil {
			return pkg.Name() + "." + obj.Name(), true
		}
		return "(" + pkg.Name() + ") " + obj.Name(), true
	}
	return obj.Name(), true
}

// mutexOp recognizes x.Lock/RLock/Unlock/RUnlock calls on sync.Mutex or
// sync.RWMutex (including embedded ones) and returns a canonical key for
// the receiver expression.
func (w *lockWalker) mutexOp(e ast.Expr) (key, op string, ok bool) {
	call, ok2 := e.(*ast.CallExpr)
	if !ok2 {
		return "", "", false
	}
	sel, ok2 := call.Fun.(*ast.SelectorExpr)
	if !ok2 {
		return "", "", false
	}
	name := sel.Sel.Name
	switch name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	obj, ok2 := w.pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok2 || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", "", false
	}
	sig, ok2 := obj.Type().(*types.Signature)
	if !ok2 || sig.Recv() == nil {
		return "", "", false
	}
	recv := sig.Recv().Type()
	if ptr, isPtr := recv.(*types.Pointer); isPtr {
		recv = ptr.Elem()
	}
	named, ok2 := recv.(*types.Named)
	if !ok2 {
		return "", "", false
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
		return exprKey(sel.X, w.pass), name, true
	}
	return "", "", false
}

// exprKey renders a receiver expression as a stable string; expressions
// too dynamic to canonicalize get a position-unique key (they will never
// match an Unlock, which only costs precision, not soundness of the
// zero-diagnostic goal).
func exprKey(e ast.Expr, pass *Pass) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprKey(e.X, pass) + "." + e.Sel.Name
	case *ast.StarExpr:
		return exprKey(e.X, pass)
	case *ast.ParenExpr:
		return exprKey(e.X, pass)
	case *ast.IndexExpr:
		return exprKey(e.X, pass) + "[...]"
	default:
		return "lock@" + pass.Prog.Fset.Position(e.Pos()).String()
	}
}
