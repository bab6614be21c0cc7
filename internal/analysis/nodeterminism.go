package analysis

// nodeterminism guards the property the whole experiment harness rests
// on: a simulation run is a pure function of its seed. internal/core,
// internal/des, internal/sim and internal/shard must draw time only from
// the DES virtual clock (Env.Now / Engine.Now) and randomness only from
// internal/xrand. The first three must additionally run on a single
// logical thread: one stray time.Now() or untracked goroutine silently
// breaks run-for-run reproducibility — and with it the PR 3 trace
// oracle, which freezes audiences at origin time and expects replays to
// be bit-identical. internal/shard is the single sanctioned goroutine
// package: it concentrates the worker/barrier discipline that keeps
// sharded runs bit-reproducible, so `go` statements are allowed there
// — no per-site //pwlint:allow needed — and nowhere else in the
// simulation stack. The same packages must not let Go's randomized map
// iteration order reach a result: maporder.go holds that rule.

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// deterministicPkgSuffixes names the packages under the determinism
// contract. Matching is by import-path suffix so analysistest fixtures
// (whose module is not "peerwindow") fall under the same rule.
var deterministicPkgSuffixes = []string{
	"internal/core",
	"internal/des",
	"internal/sim",
	"internal/shard",
}

// goroutinePkgSuffix is the one deterministic-scope package where `go`
// statements are sanctioned: the shard driver, which owns all simulation
// concurrency. Wall-clock and math/rand bans still apply there.
const goroutinePkgSuffix = "internal/shard"

// forbiddenTimeFuncs are the package-level wall-clock entry points of
// package time. time.Duration and the time.Time type are fine (des.Time
// converts through them for printing); reading or waiting on the wall
// clock is not.
var forbiddenTimeFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"AfterFunc": true,
	"NewTimer":  true,
	"NewTicker": true,
}

// NoDeterminism forbids wall-clock time, global math/rand and goroutines
// inside the deterministic simulation packages — directly, and (since
// the call-graph fact engine) through any chain of statically resolved
// helpers, including cross-package ones.
var NoDeterminism = &Analyzer{
	Name: "nodeterminism",
	Doc: "forbid time.Now/time.Since and friends, math/rand, and goroutines in " +
		"internal/core, internal/des, internal/sim and internal/shard, directly or " +
		"through any statically resolved helper chain; the simulation must stay a " +
		"pure function of its seed (use des virtual time, internal/xrand, and the " +
		"DES engine). internal/shard alone may start goroutines — it is the " +
		"sanctioned shard-driver package. Also flags a range over a map whose body " +
		"depends on iteration order: it appends to a slice that outlives the loop " +
		"and is not sorted afterwards, breaks or returns a value early, or calls " +
		"something that schedules an event or draws from a seeded stream " +
		"(escape hatch: //pwlint:allow nodeterminism)",
	Run: runNoDeterminism,
}

func inDeterministicScope(pkg *Package) bool {
	base := strings.TrimSuffix(pkg.BasePath, "_test")
	for _, suffix := range deterministicPkgSuffixes {
		if pathHasSuffix(base, suffix) {
			return true
		}
	}
	return false
}

func inGoroutineSanctionedScope(pkg *Package) bool {
	base := strings.TrimSuffix(pkg.BasePath, "_test")
	return pathHasSuffix(base, goroutinePkgSuffix)
}

func runNoDeterminism(pass *Pass) error {
	if !inDeterministicScope(pass.Pkg) {
		return nil
	}
	goAllowed := inGoroutineSanctionedScope(pass.Pkg)
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(),
					"import of %q in deterministic package: global math/rand is not seed-reproducible, use internal/xrand", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if !goAllowed {
					pass.Reportf(n.Pos(),
						"goroutine started in deterministic package: concurrency breaks the single-threaded DES replay (schedule through the engine, or drive shards via internal/shard)")
				}
			case *ast.SelectorExpr:
				obj := info.Uses[n.Sel]
				if obj == nil || obj.Pkg() == nil {
					return true
				}
				if _, isFunc := obj.(*types.Func); !isFunc {
					return true
				}
				if obj.Pkg().Path() == "time" && forbiddenTimeFuncs[obj.Name()] {
					pass.Reportf(n.Pos(),
						"time.%s in deterministic package: wall-clock time breaks seed reproducibility, use the virtual clock (Env.Now / des.Time)", obj.Name())
				}
			}
			return true
		})
	}
	checkMapRanges(pass)
	return checkInterprocedural(pass, goAllowed)
}

// detFactDescription names each propagated fact in diagnostics.
func detFactDescription(k factKind) string {
	switch k {
	case factClock:
		return "may read the wall clock"
	case factRand:
		return "may draw from global math/rand"
	case factOrder:
		return "may schedule an event or draw from a seeded stream"
	default:
		return "may start goroutines"
	}
}

// checkInterprocedural flags calls from deterministic-scope functions to
// out-of-scope helpers whose fact summary says they may read the wall
// clock, use global math/rand, or start goroutines. Only static edges
// are followed: the Env capability interface is the sanctioned seam
// between simulation code and live transports, so interface calls stay
// out (see facts.go). Calls into other deterministic-scope packages are
// skipped too — a violation there is reported at its own site, and
// direct calls into time/math/rand are already flagged by the syntactic
// pass above. Test files are exempt from the transitive rule, matching
// schedpure: tests may drive wall-clock plumbing (exporters, transports)
// around the deterministic core.
func checkInterprocedural(pass *Pass, goAllowed bool) error {
	g := pass.Prog.graph()
	for _, node := range g.nodes {
		if node.pkg != pass.Pkg || isTestFile(pass.Prog.Fset, node.pos) {
			continue
		}
		for _, cs := range node.calls {
			if cs.kind != callStatic {
				continue
			}
			callee := g.nodes[cs.static]
			if callee == nil || inDeterministicScope(callee.pkg) {
				continue
			}
			for _, k := range [...]factKind{factClock, factRand, factGo} {
				if k == factGo && goAllowed {
					continue
				}
				if !callee.fact[k] {
					continue
				}
				pass.ReportPathf(cs.pos, g.path(cs.static, k),
					"call to %s in deterministic package: the callee %s, which breaks seed reproducibility",
					cs.static, detFactDescription(k))
			}
		}
	}
	return nil
}
