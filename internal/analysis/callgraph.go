package analysis

// This file builds pwlint's conservative static call graph: the
// substrate the interprocedural analyzers (nodeterminism, locksafe,
// noalloc) propagate their per-function fact summaries over (facts.go).
//
// The graph is CHA-flavoured and deliberately simple:
//
//   - direct calls and static method calls resolve through types.Info
//     to their *types.Func and are recorded as static edges;
//   - interface method calls are resolved to every in-scope method with
//     the same name and (structurally) identical signature — class
//     hierarchy analysis without whole-program soundness pretensions.
//     Matching is structural (rendered with package-path qualifiers)
//     because every package is type-checked against its own import
//     universe, so cross-package *types.Named identity cannot be
//     trusted. A method called on a type parameter's value matches by
//     name alone;
//   - function literals are folded into their enclosing declared
//     function: an effect inside a literal is attributed to the
//     function that created the literal, which is pessimistically sound
//     for the determinism and allocation facts (the literal cannot run
//     unless someone created it) and is exactly the attribution the
//     intraprocedural analyzers already used. The blocking fact opts
//     out (locksafe's long-standing bias): a literal's body blocks in
//     whatever context eventually calls it, not in its creator, unless
//     the literal is invoked on the spot;
//   - a call through a local variable whose single assignment is a
//     function literal in the same body is tracked back to that literal
//     (so the common `helper := func(...){...}; helper(x)` pattern is
//     not a dynamic call);
//   - everything else through a function value is a dynamic call,
//     recorded by position and interpreted per fact (facts.go).
//
// Functions are identified by funcKey — (package path, receiver type
// name, function name) — not by *types.Func identity, because each
// loaded package is type-checked independently against export data and
// therefore holds its own object for every imported function.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// funcKey names one function or method uniquely across independently
// type-checked packages. recv is the receiver's base type name
// ("Engine" for *Engine), empty for plain functions.
type funcKey struct {
	pkg  string
	recv string
	name string
}

// String renders the key for call-path diagnostics: "des.Engine.siftUp",
// "time.Now".
func (k funcKey) String() string {
	short := k.pkg
	if i := strings.LastIndexByte(short, '/'); i >= 0 {
		short = short[i+1:]
	}
	short = strings.TrimSuffix(short, "_test")
	if k.recv != "" {
		return short + "." + k.recv + "." + k.name
	}
	return short + "." + k.name
}

// callSite is one outgoing edge of a function body.
type callSite struct {
	pos token.Pos
	// static is the resolved callee for direct and static method calls.
	static funcKey
	// candidates are the CHA-resolved implementations of an interface
	// method call (static is then the abstract method, for display).
	candidates []funcKey
	// kind discriminates how the call resolves.
	kind callKind
	// inLit marks call sites inside a non-immediately-invoked function
	// literal; the blocking fact skips them.
	inLit bool
	// viaParam marks dynamic calls through a func-typed parameter of the
	// enclosing function (the noalloc contract leaves those to the
	// caller).
	viaParam bool
}

type callKind uint8

const (
	callStatic    callKind = iota // static = the callee
	callInterface                 // candidates = CHA resolution set
	callDynamic                   // through a function value
)

// funcNode is one declared function of the loaded set: its identity,
// outgoing calls, and the per-fact intrinsic effect sites found in its
// body (literals folded in as described above).
type funcNode struct {
	key   funcKey
	pkg   *Package
	decl  *ast.FuncDecl
	pos   token.Pos
	calls []callSite
	// intrinsics[k] are the in-body sources of fact k, in body order.
	intrinsics [numFacts][]factSource

	// fact/witness are filled by the fixpoint in facts.go.
	fact    [numFacts]bool
	witness [numFacts]factWitness
}

// methodSig pairs a method key with its receiver-stripped structural
// signature, for CHA interface resolution.
type methodSig struct {
	key funcKey
	sig string
}

// callGraph is the whole-program graph plus the indexes resolution
// needs.
type callGraph struct {
	prog  *Program
	nodes map[funcKey]*funcNode
	// methodsByName indexes every in-scope method by name for CHA.
	methodsByName map[string][]methodSig
}

// pathQualifier renders package-path-qualified type strings, which are
// stable across independent type-check universes.
func pathQualifier(p *types.Package) string { return p.Path() }

// strippedSignature renders a method signature without its receiver, so
// an interface method and a concrete implementation compare equal.
func strippedSignature(sig *types.Signature) string {
	nosig := types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic())
	return types.TypeString(nosig, pathQualifier)
}

// keyOfFunc maps a *types.Func (from any package's universe) to its
// funcKey. ok is false for objects the graph cannot name (interface
// methods resolve separately; blank funcs are unreachable).
func keyOfFunc(fn *types.Func) (funcKey, bool) {
	fn = fn.Origin() // canonicalize generic instantiations
	if fn.Pkg() == nil {
		return funcKey{}, false
	}
	key := funcKey{pkg: fn.Pkg().Path(), name: fn.Name()}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return funcKey{}, false
	}
	if recv := sig.Recv(); recv != nil {
		rt := recv.Type()
		if ptr, isPtr := rt.(*types.Pointer); isPtr {
			rt = ptr.Elem()
		}
		switch t := rt.(type) {
		case *types.Named:
			key.recv = t.Obj().Name()
		case *types.Interface:
			// Abstract method: resolved by CHA, not by key.
			return funcKey{}, false
		default:
			return funcKey{}, false
		}
	}
	return key, true
}

// buildCallGraph scans every analyzed package once.
func buildCallGraph(prog *Program) *callGraph {
	g := &callGraph{
		prog:          prog,
		nodes:         make(map[funcKey]*funcNode),
		methodsByName: make(map[string][]methodSig),
	}
	// Pass 1: register every declared function and method so CHA has the
	// full method universe before any call is resolved.
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				key, ok := keyOfFunc(obj)
				if !ok {
					continue
				}
				// Test variants of a package re-check the same files as
				// the base package; first declaration wins.
				if _, dup := g.nodes[key]; dup {
					continue
				}
				node := &funcNode{key: key, pkg: pkg, decl: fd, pos: fd.Pos()}
				g.nodes[key] = node
				if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
					g.methodsByName[key.name] = append(g.methodsByName[key.name],
						methodSig{key: key, sig: strippedSignature(sig)})
				}
			}
		}
	}
	// Pass 2: walk every body for call edges and intrinsic effects.
	for _, node := range g.nodes {
		g.scanBody(node)
	}
	return g
}

// resolveCall classifies one call expression. ok is false for
// conversions and calls the graph has nothing to say about (builtins are
// handled by the intrinsic scanners).
func (g *callGraph) resolveCall(pkg *Package, enclosing *ast.FuncDecl, call *ast.CallExpr) (callSite, bool) {
	fun := ast.Unparen(call.Fun)
	var ident *ast.Ident
	switch f := fun.(type) {
	case *ast.Ident:
		ident = f
	case *ast.SelectorExpr:
		ident = f.Sel
	case *ast.FuncLit:
		// Immediately-invoked literal: its body is folded into the
		// enclosing function anyway; no edge needed.
		return callSite{}, false
	default:
		// Computed function value (array index, call result, …).
		return callSite{pos: call.Pos(), kind: callDynamic}, true
	}
	switch obj := pkg.Info.Uses[ident].(type) {
	case *types.Func:
		sig, _ := obj.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil {
			if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
				// Interface method call: CHA over the in-scope method
				// universe by (name, structural signature). A call on a
				// type parameter's value has a signature written in the
				// type parameter, which no concrete method's renders
				// as, so it matches by name alone.
				want := strippedSignature(sig)
				onTypeParam := false
				if sel, ok := fun.(*ast.SelectorExpr); ok {
					_, onTypeParam = pkg.Info.TypeOf(sel.X).(*types.TypeParam)
				}
				var cands []funcKey
				for _, m := range g.methodsByName[obj.Name()] {
					if onTypeParam || m.sig == want {
						cands = append(cands, m.key)
					}
				}
				display := funcKey{name: obj.Name()}
				if obj.Pkg() != nil { // nil for universe methods (error.Error)
					display.pkg = obj.Pkg().Path()
				}
				if named, ok := derefNamed(sig.Recv().Type()); ok {
					display.recv = named
				}
				return callSite{pos: call.Pos(), static: display, candidates: cands, kind: callInterface}, true
			}
		}
		key, ok := keyOfFunc(obj)
		if !ok {
			return callSite{pos: call.Pos(), kind: callDynamic}, true
		}
		return callSite{pos: call.Pos(), static: key, kind: callStatic}, true
	case *types.Var:
		// A call through a function value. Two refinements keep the
		// graph useful: a single-assignment local holding a literal from
		// the same body is tracked (the literal is already folded into
		// this node), and a func-typed parameter is marked so noalloc
		// can leave callback behavior to the caller.
		if g.isTrackedLiteralVar(pkg, enclosing, obj) {
			return callSite{}, false
		}
		viaParam := isParamOf(pkg, enclosing, obj)
		return callSite{pos: call.Pos(), kind: callDynamic, viaParam: viaParam}, true
	case *types.Builtin, *types.TypeName:
		return callSite{}, false
	case nil:
		// Conversion to an unnamed type, or unresolved.
		if _, isType := pkg.Info.Types[fun]; isType && pkg.Info.Types[fun].IsType() {
			return callSite{}, false
		}
		return callSite{pos: call.Pos(), kind: callDynamic}, true
	default:
		return callSite{pos: call.Pos(), kind: callDynamic}, true
	}
}

// derefNamed returns the base named-type name behind t, if any.
func derefNamed(t types.Type) (string, bool) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name(), true
	}
	return "", false
}

// isParamOf reports whether v is a parameter of the enclosing function.
func isParamOf(pkg *Package, enclosing *ast.FuncDecl, v *types.Var) bool {
	if enclosing == nil || enclosing.Type.Params == nil {
		return false
	}
	for _, field := range enclosing.Type.Params.List {
		for _, name := range field.Names {
			if pkg.Info.Defs[name] == v {
				return true
			}
		}
	}
	return false
}

// isTrackedLiteralVar reports whether v is a local variable of the
// enclosing body whose one and only assignment is a function literal
// (the `helper := func(...){...}` pattern). Such calls resolve to the
// literal, which is already folded into the enclosing node, so the call
// is not dynamic. Conservatively requires exactly one defining
// assignment and no reassignment anywhere in the body.
func (g *callGraph) isTrackedLiteralVar(pkg *Package, enclosing *ast.FuncDecl, v *types.Var) bool {
	if enclosing == nil {
		return false
	}
	defined := false
	reassigned := false
	ast.Inspect(enclosing.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range asg.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := pkg.Info.Defs[id]
			if obj == nil {
				obj = pkg.Info.Uses[id]
			}
			if obj != v {
				continue
			}
			if asg.Tok == token.DEFINE && i < len(asg.Rhs) {
				if _, isLit := ast.Unparen(asg.Rhs[i]).(*ast.FuncLit); isLit && !defined {
					defined = true
					continue
				}
			}
			reassigned = true
		}
		return true
	})
	return defined && !reassigned
}
