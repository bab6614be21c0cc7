package analysis

// The map-range rule of nodeterminism. Go randomizes map iteration
// order on purpose, so inside the deterministic packages a `range` over
// a map is only safe when its body computes the same thing in any order
// (a sum of integers, a per-element update, a set insertion). This file
// flags the bodies that do not:
//
//   - an append to a slice that outlives the loop — the slice ends up in
//     iteration order — unless the function sorts that slice after the
//     loop (the collect-keys-then-sort idiom, which is the fix the
//     diagnostic recommends);
//   - a break out of the loop, or a return that hands back anything but
//     constants: which elements were visited, or which one was found,
//     depends on the order (`return true` from a search does not);
//   - a call that carries the order fact (facts.go): it schedules an
//     event, sends a message, arms a timer or draws from a seeded
//     stream, directly or through statically resolved helpers, so the
//     schedule or the stream ends up in iteration order.
//
// It is what would have caught the first, map-backed scaled simulator
// sampling Fig 7 from "the first 1,000 nodes in map order". Float accumulation and
// last-writer-wins assignments are order-sensitive too and are not
// detected; test files are exempt, as for the transitive rule.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// sortFuncs are the sort entry points that make a collected slice's
// order independent of how it was filled, by package path.
var sortFuncs = map[string]map[string]bool{
	"sort": {
		"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
		"Strings": true, "Ints": true, "Float64s": true,
	},
	"slices": {
		"Sort": true, "SortFunc": true, "SortStableFunc": true,
	},
}

// checkMapRanges reports every order-sensitive range over a map in the
// package's non-test files.
func checkMapRanges(pass *Pass) {
	g := pass.Prog.graph()
	for _, f := range pass.Pkg.Files {
		if isTestFile(pass.Prog.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c := &mapRangeChecker{pass: pass, g: g, decl: fd}
			c.walk(fd.Body)
		}
	}
}

type mapRangeChecker struct {
	pass *Pass
	g    *callGraph
	decl *ast.FuncDecl
}

// walk finds range statements, with the label (if any) directly
// attached to each.
func (c *mapRangeChecker) walk(n ast.Node) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.LabeledStmt:
			if rs, ok := m.Stmt.(*ast.RangeStmt); ok {
				c.checkRange(rs, m.Label)
				c.walk(rs.Body)
				return false
			}
		case *ast.RangeStmt:
			c.checkRange(m, nil)
		}
		return true
	})
}

func (c *mapRangeChecker) checkRange(rs *ast.RangeStmt, label *ast.Ident) {
	tv, ok := c.pass.Pkg.Info.Types[rs.X]
	if !ok || tv.Type == nil {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	why, path := c.orderSensitive(rs, label)
	if why == "" {
		return
	}
	c.pass.ReportPathf(rs.Pos(), path,
		"range over map %s in deterministic package: iteration order is random and the body %s; collect the keys, sort them, and range over the slice",
		types.ExprString(rs.X), why)
}

// orderSensitive returns the first reason the loop body's outcome
// depends on iteration order ("" when none was found) and, for call
// reasons, the witness path.
func (c *mapRangeChecker) orderSensitive(rs *ast.RangeStmt, label *ast.Ident) (why string, path []string) {
	info := c.pass.Pkg.Info
	// inLoop reports whether the object was declared by the range clause
	// or inside its body — per-iteration state.
	inLoop := func(obj types.Object) bool {
		return obj != nil && obj.Pos() >= rs.Pos() && obj.Pos() < rs.End()
	}
	// enclosing holds the nodes between the loop body and the node being
	// visited: a break belongs to the nearest for/range/switch/select in
	// it, a return to the nearest function literal.
	var enclosing []ast.Node
	capturesBreak := func() bool {
		for _, n := range enclosing {
			switch n.(type) {
			case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.FuncLit:
				return true
			}
		}
		return false
	}
	inLit := func() bool {
		for _, n := range enclosing {
			if _, ok := n.(*ast.FuncLit); ok {
				return true
			}
		}
		return false
	}
	ast.Inspect(rs.Body, func(m ast.Node) bool {
		if m == nil {
			enclosing = enclosing[:len(enclosing)-1]
			return true
		}
		if why != "" {
			return false
		}
		switch m := m.(type) {
		case *ast.BranchStmt:
			if m.Tok != token.BREAK || inLit() {
				break
			}
			if (m.Label == nil && !capturesBreak()) ||
				(m.Label != nil && label != nil && m.Label.Name == label.Name) {
				why = "breaks out early"
				return false
			}
		case *ast.ReturnStmt:
			if inLit() {
				break
			}
			for _, res := range m.Results {
				if tv, ok := info.Types[res]; !ok || (tv.Value == nil && !tv.IsNil()) {
					why = "returns a value from inside the loop"
					return false
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range m.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isBuiltinCall(info, call, "append") || i >= len(m.Lhs) {
					continue
				}
				dest := m.Lhs[i]
				root := rootIdent(dest)
				if root == nil || inLoop(info.ObjectOf(root)) {
					continue
				}
				if c.sortedAfter(rs, info.ObjectOf(root)) {
					continue
				}
				why = "appends to " + types.ExprString(dest) + ", which outlives the loop"
				return false
			}
		case *ast.CallExpr:
			cs, ok := c.g.resolveCall(c.pass.Pkg, c.decl, m)
			if !ok {
				break
			}
			bad, callee, _ := c.g.edgeFact(cs, factOrder)
			if !bad {
				break
			}
			why = "calls " + callee.String() + ", which " + detFactDescription(factOrder)
			if orderSensitiveCallee(callee) {
				path = []string{callee.String()}
			} else {
				path = c.g.path(callee, factOrder)
			}
			return false
		}
		enclosing = append(enclosing, m)
		return true
	})
	return why, path
}

// sortedAfter reports whether the enclosing function, after the loop,
// passes the slice held in obj to one of the sort entry points.
func (c *mapRangeChecker) sortedAfter(rs *ast.RangeStmt, obj types.Object) bool {
	info := c.pass.Pkg.Info
	found := false
	ast.Inspect(c.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found || call.Pos() < rs.End() || len(call.Args) == 0 {
			return !found
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || !sortFuncs[fn.Pkg().Path()][fn.Name()] {
			return true
		}
		// The slice may be wrapped: sort.Sort(byLevel(keys)).
		ast.Inspect(call.Args[0], func(a ast.Node) bool {
			if id, ok := a.(*ast.Ident); ok && info.ObjectOf(id) == obj {
				found = true
			}
			return !found
		})
		return !found
	})
	return found
}

// rootIdent returns the identifier an assignable expression hangs off:
// x for x, x.f, x[i], x.f[i].g and (*x).f.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}
