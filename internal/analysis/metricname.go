package analysis

// metricname keeps the instrument namespace coherent. The Registry's
// get-or-create accessors make a typo'd or doubly-minted name silently
// create a second instrument, and the Prometheus exposition prefixes
// everything with "pw_" — so the rules are:
//
//  1. every metric name is declared exactly once, as a string constant
//     whose identifier starts with "Metric" (prefix constants for
//     dynamic suffixes end in "Prefix" and in '.');
//  2. names are lowercase dotted snake_case ("probe.detect_latency_seconds"),
//     which renders to valid pw_-prefixed Prometheus snake_case;
//  3. names never bake in the "pw" namespace themselves (the exposition
//     layer adds it), and Snapshot.WritePrometheus is always called with
//     the canonical "pw" prefix;
//  4. registration and snapshot-lookup call sites (Registry.Counter/
//     Gauge/Histogram, MetricsSnapshot.Counter/Gauge, and the telemetry
//     plane's HealthScores.Set) must spell the name through a Metric*
//     constant — never a loose string literal. Telemetry frame fields
//     and health-score keys live in the same dotted namespace as the
//     instruments they aggregate, so they obey the same rules.
//
// Test files are exempt: throwaway instrument names in unit tests are
// fine.

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// metricNameRE is the canonical shape of a metric name: lowercase dotted
// snake_case. A single trailing '.' is permitted for prefix constants
// and checked separately.
var metricNameRE = regexp.MustCompile(`^[a-z][a-z0-9]*(?:[._][a-z0-9]+)*$`)

// registrarTypes maps each registrar type to the methods of it whose
// first argument is a metric (or health-signal) name. Matching is by
// receiver type name and method name together, so Gauge.Set — a value
// setter, not a name registration — stays out of scope.
var registrarTypes = map[string]map[string]bool{
	"Registry":        {"Counter": true, "Gauge": true, "Histogram": true},
	"MetricsSnapshot": {"Counter": true, "Gauge": true, "Histogram": true},
	"HealthScores":    {"Set": true},
}

// MetricName enforces the metric naming and single-declaration rules.
var MetricName = newMetricName()

func newMetricName() *Analyzer {
	st := &metricState{}
	return &Analyzer{
		Name: "metricname",
		Doc: "require every metric name to be declared exactly once as a Metric* string " +
			"constant in lowercase dotted snake_case without a pw prefix, used at every " +
			"Registry/MetricsSnapshot access, and require WritePrometheus to use the " +
			"canonical \"pw\" namespace",
		Init:   st.init,
		Run:    st.run,
		Finish: st.finish,
	}
}

// metricConst is one Metric* constant declaration.
type metricConst struct {
	name string // identifier, e.g. MetricProbeRounds
	pos  token.Position
}

type metricState struct {
	// byValue collects declarations per metric name string.
	byValue map[string][]metricConst
}

func (st *metricState) init(prog *Program) {
	st.byValue = make(map[string][]metricConst)
	seenFile := make(map[string]bool)
	for _, pkg := range prog.Packages {
		for id, obj := range pkg.Info.Defs {
			c, ok := obj.(*types.Const)
			if !ok || !strings.HasPrefix(id.Name, "Metric") {
				continue
			}
			if c.Val().Kind() != constant.String {
				continue
			}
			pos := prog.Fset.Position(id.Pos())
			if strings.HasSuffix(pos.Filename, "_test.go") {
				continue
			}
			// Test variants re-type-check the same source files; count
			// each declaration site once.
			key := pos.String() + "/" + id.Name
			if seenFile[key] {
				continue
			}
			seenFile[key] = true
			st.byValue[constant.StringVal(c.Val())] = append(st.byValue[constant.StringVal(c.Val())],
				metricConst{name: id.Name, pos: pos})
		}
	}
}

func (st *metricState) run(pass *Pass) error {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		if isTestFile(pass.Prog.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "Counter", "Gauge", "Histogram", "Set":
				if !isRegistrarMethod(info, sel) || len(call.Args) == 0 {
					return true
				}
				st.checkNameArg(pass, call.Args[0])
			case "WritePrometheus":
				if len(call.Args) < 2 {
					return true
				}
				if tv, ok := info.Types[call.Args[1]]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
					if prefix := constant.StringVal(tv.Value); prefix != "pw" {
						pass.Reportf(call.Args[1].Pos(),
							"WritePrometheus prefix %q: the exposition namespace is always \"pw\"", prefix)
					}
				}
			}
			return true
		})
	}
	return nil
}

// isRegistrarMethod reports whether sel resolves to a name-taking
// method of one of the registrar types (metrics.Registry,
// peerwindow.MetricsSnapshot, telemetry.HealthScores).
func isRegistrarMethod(info *types.Info, sel *ast.SelectorExpr) bool {
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if ptr, isPtr := recv.(*types.Pointer); isPtr {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	return registrarTypes[named.Obj().Name()][fn.Name()]
}

// checkNameArg validates the name argument of a registration call: it
// must be a Metric* constant, or a Metric*Prefix constant plus a dynamic
// suffix.
func (st *metricState) checkNameArg(pass *Pass, arg ast.Expr) {
	arg = ast.Unparen(arg)
	switch a := arg.(type) {
	case *ast.Ident, *ast.SelectorExpr:
		if name, ok := constIdentName(pass, a); ok {
			if !strings.HasPrefix(name, "Metric") {
				pass.Reportf(arg.Pos(), "metric name constant %s: metric name constants must be named Metric*", name)
			}
			return
		}
	case *ast.BasicLit:
		if a.Kind == token.STRING {
			pass.Reportf(arg.Pos(),
				"metric registered with a loose string literal %s: declare it once as a Metric* constant", a.Value)
			return
		}
	case *ast.BinaryExpr:
		if a.Op == token.ADD {
			if name, ok := constIdentName(pass, ast.Unparen(a.X)); ok &&
				strings.HasPrefix(name, "Metric") && strings.HasSuffix(name, "Prefix") {
				return
			}
			pass.Reportf(arg.Pos(),
				"dynamically built metric name: the static part must be a Metric*Prefix constant on the left of the concatenation")
			return
		}
	}
	pass.Reportf(arg.Pos(), "metric name is not statically checkable: register through a Metric* constant")
}

// constIdentName resolves an identifier or selector to the name of the
// string constant it denotes.
func constIdentName(pass *Pass, e ast.Expr) (string, bool) {
	var id *ast.Ident
	switch e := e.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return "", false
	}
	if c, ok := pass.Pkg.Info.Uses[id].(*types.Const); ok && c.Val().Kind() == constant.String {
		return c.Name(), true
	}
	return "", false
}

func (st *metricState) finish(report func(Diagnostic)) {
	values := make([]string, 0, len(st.byValue))
	for v := range st.byValue {
		values = append(values, v)
	}
	sort.Strings(values)
	for _, v := range values {
		decls := st.byValue[v]
		isPrefix := strings.HasSuffix(decls[0].name, "Prefix")
		base := v
		if isPrefix {
			base = strings.TrimSuffix(v, ".")
		}
		switch {
		case strings.HasPrefix(v, "pw.") || strings.HasPrefix(v, "pw_"):
			report(Diagnostic{Pos: decls[0].pos, Message: "metric name " + quoted(v) +
				" bakes in the pw namespace: the exposition layer adds the pw_ prefix"})
		case isPrefix && !strings.HasSuffix(v, "."):
			report(Diagnostic{Pos: decls[0].pos, Message: "metric prefix constant " + decls[0].name +
				" must end in '.' so the dynamic suffix forms a new dotted segment"})
		case !metricNameRE.MatchString(base):
			report(Diagnostic{Pos: decls[0].pos, Message: "metric name " + quoted(v) +
				" is not lowercase dotted snake_case (it must render to a valid pw_* Prometheus name)"})
		}
		if len(decls) > 1 {
			var names []string
			for _, d := range decls {
				names = append(names, d.name+" ("+d.pos.String()+")")
			}
			for _, d := range decls {
				report(Diagnostic{Pos: d.pos, Message: "metric name " + quoted(v) +
					" declared more than once: " + strings.Join(names, ", ") +
					"; every metric is registered from exactly one constant"})
			}
		}
	}
}

func quoted(s string) string { return `"` + s + `"` }
