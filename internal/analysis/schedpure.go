package analysis

// schedpure keeps the protocol core engine-agnostic, which is the load-
// bearing assumption of the model checker: internal/model explores
// schedules by substituting the engine's event order under the protocol,
// so the protocol must observe time and scheduling only through the
// core.Env capability surface (Now, SetTimer, Send). If core reached
// into des.Engine directly — scheduling its own events, reading engine
// internals, installing choosers — those effects would be invisible to
// the checker and its soundness claim ("every explored schedule is a
// schedule the protocol can actually exhibit") would silently break.
// Package des may contribute only its pure value vocabulary: the
// des.Time unit, its constants and conversions.

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// schedPureScopeSuffix names the package under the purity contract.
// Matching is by import-path suffix so analysistest fixtures (whose
// module is not "peerwindow") fall under the same rule.
const schedPureScopeSuffix = "internal/core"

// desValueVocabulary are the only package-level des identifiers
// internal/core may reference: the virtual-time unit, its constants and
// conversions. Methods on the des.Time value (Seconds, Duration, String)
// are allowed by receiver type; everything else in des is the engine.
var desValueVocabulary = map[string]bool{
	"Time":        true,
	"Nanosecond":  true,
	"Microsecond": true,
	"Millisecond": true,
	"Second":      true,
	"Minute":      true,
	"Hour":        true,
	"FromSeconds": true,
}

// SchedPure forbids internal/core from touching the DES engine: time and
// scheduling flow only through core.Env, so the model checker's schedule
// exploration stays sound.
var SchedPure = &Analyzer{
	Name: "schedpure",
	Doc: "forbid internal/core from using internal/des beyond the des.Time value " +
		"vocabulary; the core must observe time and scheduling only through core.Env " +
		"(Now, SetTimer, Send) so the model checker controls every schedule the " +
		"protocol can exhibit (escape hatch: //pwlint:allow schedpure)",
	Run: runSchedPure,
}

func inSchedPureScope(pkg *Package) bool {
	base := strings.TrimSuffix(pkg.BasePath, "_test")
	return pathHasSuffix(base, schedPureScopeSuffix)
}

func isDesPath(path string) bool {
	return pathHasSuffix(path, "internal/des")
}

// isTimeMethod reports whether obj is a method whose receiver is the
// des.Time value type.
func isTimeMethod(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	return ok && named.Obj().Name() == "Time"
}

func runSchedPure(pass *Pass) error {
	if !inSchedPureScope(pass.Pkg) {
		return nil
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		// Tests may drive a real engine (they are the harness, not the
		// protocol); the contract binds the shipped core only.
		if isTestFile(pass.Prog.Fset, f.Pos()) {
			continue
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if imp.Name != nil && imp.Name.Name == "." && isDesPath(path) {
				pass.Reportf(imp.Pos(),
					"dot-import of %q in internal/core: the engine vocabulary must stay visible and auditable, import it qualified", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := info.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil || !isDesPath(obj.Pkg().Path()) {
				return true
			}
			if desValueVocabulary[obj.Name()] || isTimeMethod(obj) {
				return true
			}
			pass.Reportf(sel.Pos(),
				"des.%s in internal/core: the protocol must observe time and scheduling only through core.Env (Now, SetTimer, Send), never the engine — direct engine use is invisible to the model checker", obj.Name())
			return true
		})
	}
	return nil
}
