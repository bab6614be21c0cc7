package analysis

// This file is the fact half of the interprocedural engine: each
// function of the loaded set gets a vector of boolean summaries —
//
//	factClock  may read the wall clock (time.Now and friends)
//	factRand   may draw from global math/rand
//	factBlock  may block on another goroutine (chan ops, selects,
//	           known blocking callees)
//	factAlloc  may allocate on the Go heap
//	factGo     may start a goroutine
//	factOrder  may schedule a simulation event or draw from a seeded
//	           random stream (des.Engine.At/After…, xrand.Source,
//	           core.Env.Send/SetTimer) — harmless in itself, but its
//	           outcome depends on the order of the calls, which is what
//	           nodeterminism's map-range rule asks about
//
// — computed as (intrinsic effects of the body) OR (facts of callees,
// per the edge policy below) and propagated to a fixpoint over the call
// graph. Callees outside the loaded set have no body to inspect, so
// each fact treats them by policy: clock/rand recognize the time and
// math/rand entry points exactly; block falls back to locksafe's
// blocking-name heuristic; alloc is pessimistic-true unless the callee
// is on a short allowlist of provably non-allocating stdlib primitives;
// goroutine assumes false (an external library spawning goroutines is
// outside the determinism contract's blast radius by construction —
// the contract binds repo packages).
//
// Edge policy per fact:
//
//   - clock/rand/go/order propagate through static edges only.
//     Interface calls are deliberately ignored: the Env capability
//     interface is the repo's *sanctioned* seam between deterministic
//     simulation code and live wall-clock transports, and CHA would
//     fuse the two worlds back together. (The order fact recognizes
//     Env.Send and Env.SetTimer themselves, by name, as primitives.)
//   - block propagates through static edges and CHA interface
//     candidates, and skips call sites inside function literals
//     (locksafe's long-standing bias: a literal blocks in whoever
//     calls it, not in its creator).
//   - alloc propagates through every edge kind: static, interface
//     (pessimistic when the candidate set is empty), and dynamic
//     (pessimistic unless the call goes through a func-typed parameter
//     of the enclosing function, which the noalloc contract leaves to
//     the caller — mirroring how the AllocsPerRun runtime guards pass
//     pre-bound closures).
//
// A //pwlint:allow <analyzer> directive on (or directly above) an
// effect site removes that site from the fact computation, not just
// from the final report — otherwise a single justified allocation
// (say, a cold panic path) would transitively poison every caller.
//
// Fact sources and witnesses are kept so analyzers can print the full
// offending call path down to the intrinsic effect.

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

type factKind int

const (
	factClock factKind = iota
	factRand
	factBlock
	factAlloc
	factGo
	factOrder
	numFacts
)

// factAnalyzer names the analyzer whose //pwlint:allow directive
// suppresses sites of each fact.
func factAnalyzer(k factKind) string {
	switch k {
	case factBlock:
		return "locksafe"
	case factAlloc:
		return "noalloc"
	default:
		return "nodeterminism"
	}
}

// factSource is one intrinsic effect site inside a function body.
type factSource struct {
	pos  token.Pos
	what string // e.g. "make", "string concatenation", "channel send"
}

// factWitness records why a function has a fact: either an intrinsic
// source in its own body, or a call edge to a callee that has it.
type factWitness struct {
	src      *factSource // non-nil for intrinsic facts
	callee   funcKey     // the edge taken, zero for intrinsic
	callPos  token.Pos
	external bool // callee is outside the loaded set
}

// shortPos renders a position as base-filename:line for call-path lines.
func (g *callGraph) shortPos(pos token.Pos) string {
	p := g.prog.Fset.Position(pos)
	return filepath.Base(p.Filename) + ":" + strconv.Itoa(p.Line)
}

// path reconstructs the witness chain for fact k starting at key, one
// printable step per element, ending at the intrinsic effect.
func (g *callGraph) path(key funcKey, k factKind) []string {
	var out []string
	seen := make(map[funcKey]bool)
	cur := key
	for !seen[cur] {
		seen[cur] = true
		n := g.nodes[cur]
		if n == nil {
			out = append(out, cur.String())
			break
		}
		w := n.witness[k]
		switch {
		case w.src != nil:
			out = append(out, cur.String()+" ("+g.shortPos(w.src.pos)+": "+w.src.what+")")
			return out
		case w.callee == (funcKey{}):
			out = append(out, cur.String())
			return out
		case w.external:
			out = append(out, cur.String()+" ("+g.shortPos(w.callPos)+")")
			out = append(out, w.callee.String())
			return out
		default:
			out = append(out, cur.String()+" ("+g.shortPos(w.callPos)+")")
			cur = w.callee
		}
	}
	return out
}

// externalFact is the policy for callees with no body in the loaded
// set. The returned string names the effect for witness display.
func externalFact(key funcKey, k factKind) bool {
	switch k {
	case factClock:
		return key.pkg == "time" && forbiddenTimeFuncs[key.name]
	case factRand:
		return key.pkg == "math/rand" || key.pkg == "math/rand/v2"
	case factBlock:
		return blockingNames[key.name]
	case factAlloc:
		return !externalAllocFree(key)
	default: // factGo, factOrder
		return false
	}
}

// engineScheduleFuncs are the des.Engine methods that put an event on
// the queue.
var engineScheduleFuncs = map[string]bool{
	"At": true, "AtTag": true, "AtKey": true, "After": true, "AfterTag": true,
}

// orderSensitiveCallee reports whether key is one of the primitives
// whose effect depends on call order: scheduling on the DES engine
// (same-instant events run in scheduling order), sending or arming a
// timer through core.Env, and every method of a seeded xrand.Source
// (each draw advances the stream). Packages match by import-path suffix
// so analysistest fixtures fall under the same rule.
func orderSensitiveCallee(key funcKey) bool {
	switch {
	case isDesPath(key.pkg):
		return key.recv == "Engine" && engineScheduleFuncs[key.name]
	case pathHasSuffix(key.pkg, "internal/xrand"):
		return key.recv == "Source"
	case pathHasSuffix(key.pkg, "internal/core"):
		return key.recv == "Env" && (key.name == "Send" || key.name == "SetTimer")
	}
	return false
}

// pathHasSuffix reports whether an import path is suffix or ends in
// /suffix — how every scope rule names a package, so that analysistest
// fixtures (module pwfixture) match like the real tree.
func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// binaryAllocFree are the encoding/binary primitives that write into
// caller-provided storage or extend a caller-owned slice (the amortized
// builder pattern the runtime alloc guards already bless).
var binaryAllocFree = map[string]bool{
	"Uint16": true, "Uint32": true, "Uint64": true,
	"PutUint16": true, "PutUint32": true, "PutUint64": true,
	"AppendUint16": true, "AppendUint32": true, "AppendUint64": true,
	"Uvarint": true, "Varint": true,
	"PutUvarint": true, "PutVarint": true,
	"AppendUvarint": true, "AppendVarint": true,
}

// externalAllocFree is the allowlist of out-of-set callees noalloc
// trusts not to allocate; everything else external is pessimistically
// allocating.
func externalAllocFree(key funcKey) bool {
	switch key.pkg {
	case "math", "math/bits", "sync/atomic":
		return true
	case "sync":
		switch key.name {
		case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
			return true
		}
	case "sort":
		switch key.name {
		case "Search", "SearchInts", "SearchStrings", "SearchFloat64s":
			return true
		}
	case "encoding/binary":
		return binaryAllocFree[key.name]
	}
	return false
}

// noescapeClosureCallee reports whether a function literal passed
// directly as an argument to callee is known not to escape (so the
// closure is stack-allocated). sort.Search and friends call the
// predicate and drop it.
func noescapeClosureCallee(key funcKey) bool {
	return key.pkg == "sort" && (key.name == "Search" || key.name == "SearchInts" ||
		key.name == "SearchStrings" || key.name == "SearchFloat64s")
}

// edgeFact evaluates whether call site cs currently carries fact k into
// its enclosing function, under the per-fact edge policy. The returned
// key is the responsible callee (zero for dynamic calls) and external
// reports whether it is outside the loaded set. Allow-suppressed sites
// contribute nothing.
func (g *callGraph) edgeFact(cs callSite, k factKind) (bad bool, callee funcKey, external bool) {
	if g.prog.allowedAtPos(factAnalyzer(k), cs.pos) {
		return false, funcKey{}, false
	}
	if k == factBlock && cs.inLit {
		return false, funcKey{}, false
	}
	if k == factOrder && cs.kind != callDynamic && orderSensitiveCallee(cs.static) {
		return true, cs.static, true
	}
	switch cs.kind {
	case callStatic:
		if n := g.nodes[cs.static]; n != nil {
			return n.fact[k], cs.static, false
		}
		return externalFact(cs.static, k), cs.static, true
	case callInterface:
		switch k {
		case factBlock:
			for _, cand := range cs.candidates {
				if n := g.nodes[cand]; n != nil && n.fact[k] {
					return true, cand, false
				}
			}
			if blockingNames[cs.static.name] {
				return true, cs.static, true
			}
		case factAlloc:
			if len(cs.candidates) == 0 {
				// No in-scope implementation: unknown code.
				return true, cs.static, true
			}
			for _, cand := range cs.candidates {
				if n := g.nodes[cand]; n != nil && n.fact[k] {
					return true, cand, false
				}
			}
		}
		return false, funcKey{}, false
	default: // callDynamic
		if k == factAlloc && !cs.viaParam {
			return true, funcKey{}, true
		}
		return false, funcKey{}, false
	}
}

// solve runs the monotone fixpoint: fact[k] of a function is true if it
// has an intrinsic source or any call edge carries the fact. Iteration
// order is sorted for deterministic witnesses.
func (g *callGraph) solve() {
	keys := make([]funcKey, 0, len(g.nodes))
	for k := range g.nodes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.pkg != b.pkg {
			return a.pkg < b.pkg
		}
		if a.recv != b.recv {
			return a.recv < b.recv
		}
		return a.name < b.name
	})
	// Seed intrinsic facts.
	for _, key := range keys {
		n := g.nodes[key]
		for k := factKind(0); k < numFacts; k++ {
			if len(n.intrinsics[k]) > 0 {
				n.fact[k] = true
				n.witness[k] = factWitness{src: &n.intrinsics[k][0]}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, key := range keys {
			n := g.nodes[key]
			for k := factKind(0); k < numFacts; k++ {
				if n.fact[k] {
					continue
				}
				for _, cs := range n.calls {
					bad, callee, external := g.edgeFact(cs, k)
					if !bad {
						continue
					}
					n.fact[k] = true
					n.witness[k] = factWitness{callee: callee, callPos: cs.pos, external: external}
					changed = true
					break
				}
			}
		}
	}
}

// scanBody walks one function body collecting call edges and intrinsic
// effect sites, folding function literals per the policy above.
func (g *callGraph) scanBody(node *funcNode) {
	s := &bodyScanner{
		g:          g,
		node:       node,
		pkg:        node.pkg,
		callFuns:   make(map[ast.Expr]bool),
		exemptLit:  make(map[*ast.FuncLit]bool),
		exemptCall: make(map[*ast.CallExpr]bool),
		inSelect:   make(map[ast.Node]bool),
	}
	s.prepass(node.decl.Body)
	s.walk(node.decl.Body, false)
}

type bodyScanner struct {
	g    *callGraph
	node *funcNode
	pkg  *Package
	// callFuns marks expressions used as the function operand of a call
	// (so selector method *values* are distinguishable from calls).
	callFuns map[ast.Expr]bool
	// exemptLit marks function literals that do not count as a closure
	// allocation: immediately invoked, passed to a known-noescape
	// callee, or bound to a tracked call-only local.
	exemptLit map[*ast.FuncLit]bool
	// exemptCall marks append/make calls excused by the self-append
	// builder and grow idioms.
	exemptCall map[*ast.CallExpr]bool
	// inSelect marks channel operations that are the comm clause of a
	// select statement (the select itself is the blocking site).
	inSelect map[ast.Node]bool
	// litCandidates are `f := func(...){...}` bindings seen during the
	// prepass walk; whether f is call-only is decided only after the walk
	// completes, once callFuns covers the whole body.
	litCandidates []litCandidate
}

type litCandidate struct {
	lit *ast.FuncLit
	v   *types.Var
}

// prepass indexes call positions, select comm clauses, the self-append,
// grow, and builder-return idioms, and the closure-capture exemptions.
func (s *bodyScanner) prepass(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fun := ast.Unparen(n.Fun)
			s.callFuns[fun] = true
			if lit, ok := fun.(*ast.FuncLit); ok {
				s.exemptLit[lit] = true // immediately invoked
			}
			if key, ok := s.staticCalleeKey(n); ok && noescapeClosureCallee(key) {
				for _, a := range n.Args {
					if lit, ok := ast.Unparen(a).(*ast.FuncLit); ok {
						s.exemptLit[lit] = true
					}
				}
			}
		case *ast.SelectStmt:
			for _, clause := range n.Body.List {
				cc := clause.(*ast.CommClause)
				if cc.Comm == nil {
					continue
				}
				ast.Inspect(cc.Comm, func(m ast.Node) bool {
					switch m.(type) {
					case *ast.SendStmt:
						s.inSelect[m] = true
						return false
					case *ast.UnaryExpr:
						if m.(*ast.UnaryExpr).Op == token.ARROW {
							s.inSelect[m] = true
							return false
						}
					}
					return true
				})
			}
		case *ast.AssignStmt:
			s.prepassAssign(n)
			// Tracked-literal candidates are judged after the walk, when
			// callFuns covers the whole body (see below).
		case *ast.ReturnStmt:
			// Builder-return idiom: `return append(b, ...)` where b is a
			// parameter of the enclosing function — the shape of
			// encoding/binary's Append* helpers. Amortized zero-alloc for
			// callers that thread the slice back (`b = f(b)`), same bias
			// as the self-append exemption.
			for _, res := range n.Results {
				call, ok := ast.Unparen(res).(*ast.CallExpr)
				if !ok || !s.isBuiltin(call, "append") || len(call.Args) == 0 {
					continue
				}
				id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
				if !ok {
					continue
				}
				if v, ok := s.pkg.Info.Uses[id].(*types.Var); ok && isParamOf(s.pkg, s.node.decl, v) {
					s.exemptCall[call] = true
				}
			}
		}
		return true
	})
	for _, c := range s.litCandidates {
		if s.g.isTrackedLiteralVar(s.pkg, s.node.decl, c.v) && s.usedOnlyAsCallee(c.v) {
			s.exemptLit[c.lit] = true
		}
	}
}

// prepassAssign recognizes, per lhs/rhs pair: the self-append builder
// idiom `x = append(x, ...)` (with the `append(x, make([]T, n)...)`
// grow variant excusing the inner make), and the tracked-literal
// pattern `f := func(...){...}` where f is only ever called.
func (s *bodyScanner) prepassAssign(asg *ast.AssignStmt) {
	if len(asg.Lhs) != len(asg.Rhs) {
		return
	}
	for i, rhs := range asg.Rhs {
		rhs = ast.Unparen(rhs)
		if call, ok := rhs.(*ast.CallExpr); ok && s.isBuiltin(call, "append") && len(call.Args) > 0 {
			if types.ExprString(call.Args[0]) == types.ExprString(asg.Lhs[i]) {
				s.exemptCall[call] = true
				if call.Ellipsis.IsValid() && len(call.Args) == 2 {
					if mk, ok := ast.Unparen(call.Args[1]).(*ast.CallExpr); ok && s.isBuiltin(mk, "make") {
						s.exemptCall[mk] = true
					}
				}
			}
			continue
		}
		lit, ok := rhs.(*ast.FuncLit)
		if !ok || asg.Tok != token.DEFINE {
			continue
		}
		id, ok := asg.Lhs[i].(*ast.Ident)
		if !ok {
			continue
		}
		v, ok := s.pkg.Info.Defs[id].(*types.Var)
		if !ok {
			continue
		}
		s.litCandidates = append(s.litCandidates, litCandidate{lit: lit, v: v})
	}
}

// usedOnlyAsCallee reports whether every use of v in the body is the
// function operand of a call (so the bound literal never escapes).
func (s *bodyScanner) usedOnlyAsCallee(v *types.Var) bool {
	ok := true
	ast.Inspect(s.node.decl.Body, func(n ast.Node) bool {
		id, isIdent := n.(*ast.Ident)
		if !isIdent || s.pkg.Info.Uses[id] != v {
			return true
		}
		if !s.callFuns[id] {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// isBuiltin reports whether call invokes the named builtin.
func (s *bodyScanner) isBuiltin(call *ast.CallExpr, name string) bool {
	return isBuiltinCall(s.pkg.Info, call, name)
}

// isBuiltinCall reports whether call invokes the named builtin.
func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// staticCalleeKey resolves call to a funcKey when the callee is a
// declared function or non-interface method.
func (s *bodyScanner) staticCalleeKey(call *ast.CallExpr) (funcKey, bool) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return funcKey{}, false
	}
	fn, ok := s.pkg.Info.Uses[id].(*types.Func)
	if !ok {
		return funcKey{}, false
	}
	return keyOfFunc(fn)
}

// addIntrinsic records one effect site, dropping allow-suppressed ones
// so a justified site does not poison callers.
func (s *bodyScanner) addIntrinsic(k factKind, pos token.Pos, what string) {
	if s.g.prog.allowedAtPos(factAnalyzer(k), pos) {
		return
	}
	s.node.intrinsics[k] = append(s.node.intrinsics[k], factSource{pos: pos, what: what})
}

// walk is the main effect scan. inLit is true inside function literals
// that are not immediately invoked (the blocking fact skips those
// sites; everything else folds into the enclosing function).
func (s *bodyScanner) walk(n ast.Node, inLit bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			if !s.exemptLit[m] && s.captures(m) {
				s.addIntrinsic(factAlloc, m.Pos(), "closure captures variables")
			}
			// An immediately-invoked literal runs in the enclosing
			// context; any other literal keeps inLit set.
			s.walk(m.Body, inLit || !s.callFuns[m])
			return false
		case *ast.GoStmt:
			if !inGoroutineSanctionedScope(s.pkg) {
				s.addIntrinsic(factGo, m.Pos(), "go statement")
			}
			return true
		case *ast.SendStmt:
			if !s.inSelect[m] && !inLit {
				s.addIntrinsic(factBlock, m.Arrow, "channel send")
			}
			return true
		case *ast.UnaryExpr:
			switch m.Op {
			case token.ARROW:
				if !s.inSelect[m] && !inLit {
					s.addIntrinsic(factBlock, m.Pos(), "channel receive")
				}
			case token.AND:
				if _, ok := ast.Unparen(m.X).(*ast.CompositeLit); ok {
					s.addIntrinsic(factAlloc, m.Pos(), "address of composite literal")
					// The literal itself is covered by the & site.
					for _, e := range m.X.(*ast.CompositeLit).Elts {
						s.walk(e, inLit)
					}
					return false
				}
			}
			return true
		case *ast.SelectStmt:
			if !inLit && !selectHasDefault(m) {
				s.addIntrinsic(factBlock, m.Pos(), "select without default")
			}
			return true
		case *ast.BinaryExpr:
			if m.Op == token.ADD {
				if tv, ok := s.pkg.Info.Types[m]; ok && tv.Value == nil && isStringType(tv.Type) {
					s.addIntrinsic(factAlloc, m.Pos(), "string concatenation")
				}
			}
			return true
		case *ast.CompositeLit:
			s.compositeLit(m)
			return true
		case *ast.SelectorExpr:
			if sel, ok := s.pkg.Info.Selections[m]; ok && sel.Kind() == types.MethodVal && !s.callFuns[m] {
				s.addIntrinsic(factAlloc, m.Pos(), "method value creates a closure")
			}
			return true
		case *ast.AssignStmt:
			s.assignEffects(m)
			return true
		case *ast.ReturnStmt:
			s.returnEffects(m)
			return true
		case *ast.CallExpr:
			return s.callEffects(m, inLit)
		}
		return true
	})
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32
}

// compositeLit records map and slice literals (heap-backed) but not
// struct or array values.
func (s *bodyScanner) compositeLit(lit *ast.CompositeLit) {
	tv, ok := s.pkg.Info.Types[lit]
	if !ok || tv.Type == nil {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Map:
		s.addIntrinsic(factAlloc, lit.Pos(), "map literal")
	case *types.Slice:
		s.addIntrinsic(factAlloc, lit.Pos(), "slice literal")
	}
}

// boxes reports whether assigning a value of type from to a location of
// type to performs an allocating interface conversion. Pointer-shaped
// values (pointers, channels, maps, funcs) box without allocating.
func boxes(from, to types.Type) bool {
	if from == nil || to == nil {
		return false
	}
	if _, ok := to.Underlying().(*types.Interface); !ok {
		return false
	}
	if _, ok := from.Underlying().(*types.Interface); ok {
		return false
	}
	switch from.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	}
	if b, ok := from.Underlying().(*types.Basic); ok && b.Kind() == types.UnsafePointer {
		return false
	}
	return true
}

// exprBoxes checks one expression against a target type, skipping nils
// and untyped constants folded at compile time only when nil.
func (s *bodyScanner) exprBoxes(e ast.Expr, to types.Type, what string) {
	tv, ok := s.pkg.Info.Types[e]
	if !ok || tv.IsNil() {
		return
	}
	if boxes(tv.Type, to) {
		s.addIntrinsic(factAlloc, e.Pos(), what)
	}
}

// assignEffects records map writes and interface-boxing assignments.
func (s *bodyScanner) assignEffects(asg *ast.AssignStmt) {
	for _, lhs := range asg.Lhs {
		if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			if tv, ok := s.pkg.Info.Types[ix.X]; ok && tv.Type != nil {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					s.addIntrinsic(factAlloc, ix.Pos(), "map assignment")
				}
			}
		}
	}
	if asg.Tok != token.ASSIGN || len(asg.Lhs) != len(asg.Rhs) {
		return
	}
	for i, lhs := range asg.Lhs {
		tv, ok := s.pkg.Info.Types[lhs]
		if !ok {
			continue
		}
		s.exprBoxes(asg.Rhs[i], tv.Type, "interface conversion in assignment")
	}
}

// returnEffects records interface boxing at return statements against
// the enclosing function's result types.
func (s *bodyScanner) returnEffects(ret *ast.ReturnStmt) {
	obj, ok := s.pkg.Info.Defs[s.node.decl.Name].(*types.Func)
	if !ok {
		return
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Results() == nil || len(ret.Results) != sig.Results().Len() {
		return
	}
	for i, e := range ret.Results {
		s.exprBoxes(e, sig.Results().At(i).Type(), "interface conversion at return")
	}
}

// callEffects handles call expressions: conversions (string <-> byte
// slice allocate), allocating builtins, interface boxing of arguments,
// and the call edge itself. Returns whether Inspect should descend into
// the arguments (always true; edges for nested calls are found there).
func (s *bodyScanner) callEffects(call *ast.CallExpr, inLit bool) bool {
	fun := ast.Unparen(call.Fun)
	if tv, ok := s.pkg.Info.Types[fun]; ok && tv.IsType() {
		// Conversion: string <-> []byte/[]rune copies to fresh storage.
		if len(call.Args) == 1 {
			if atv, ok := s.pkg.Info.Types[call.Args[0]]; ok && atv.Type != nil && tv.Type != nil {
				from, to := atv.Type, tv.Type
				if (isStringType(to) && isByteOrRuneSlice(from)) ||
					(isByteOrRuneSlice(to) && isStringType(from)) {
					if atv.Value == nil { // constant conversions fold away
						s.addIntrinsic(factAlloc, call.Pos(), "string conversion copies")
					}
				}
			}
		}
		return true
	}
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := s.pkg.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				if !s.exemptCall[call] {
					s.addIntrinsic(factAlloc, call.Pos(), "make")
				}
			case "new":
				s.addIntrinsic(factAlloc, call.Pos(), "new")
			case "append":
				if !s.exemptCall[call] {
					s.addIntrinsic(factAlloc, call.Pos(), "append to a fresh destination reallocates")
				}
			}
			return true
		}
	}
	// Interface boxing of arguments against the callee signature.
	if ftv, ok := s.pkg.Info.Types[call.Fun]; ok && ftv.Type != nil {
		if sig, ok := ftv.Type.Underlying().(*types.Signature); ok {
			s.argBoxes(call, sig)
		}
	}
	if cs, ok := s.g.resolveCall(s.pkg, s.node.decl, call); ok {
		cs.inLit = inLit
		s.node.calls = append(s.node.calls, cs)
	}
	return true
}

// argBoxes checks each argument against its parameter type, handling
// variadic spreading ([]T... passes the slice as-is, no boxing).
func (s *bodyScanner) argBoxes(call *ast.CallExpr, sig *types.Signature) {
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue
			}
			if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt != nil {
			s.exprBoxes(arg, pt, "interface conversion in call argument")
		}
	}
}

// captures reports whether lit references variables declared outside
// its own body (package-level variables and struct fields do not force
// a heap closure).
func (s *bodyScanner) captures(lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := s.pkg.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Pkg() == nil {
			return true
		}
		if v.Parent() == v.Pkg().Scope() {
			return true // package-level
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			found = true
			return false
		}
		return true
	})
	return found
}
