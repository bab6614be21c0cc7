// Package analysis is pwlint's engine: a small, dependency-free
// equivalent of golang.org/x/tools/go/analysis, built on the standard
// library's go/ast and go/types (the x/tools module is deliberately not
// a dependency of this repo). It defines the Analyzer/Pass vocabulary,
// loads fully type-checked packages through `go list -export` (see
// load.go), and applies the project-wide suppression directive
//
//	//pwlint:allow <analyzer>[,<analyzer>...] [reason]
//
// which silences diagnostics of the named analyzers on the same source
// line or the line directly below the comment. The individual analyzers
// live next to this file; cmd/pwlint is the multichecker front-end and
// docs/STATIC_ANALYSIS.md the human-facing index.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
	"time"
)

// Analyzer is one named check. Run is invoked once per loaded package;
// the optional Init hook sees the whole program first (for checks that
// need cross-package facts, like the metric-name constant table), and the
// optional Finish hook runs after every package (for whole-program
// verdicts, like duplicate metric names).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //pwlint:allow directives. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description shown by `pwlint -help`.
	Doc string
	// Init, if non-nil, observes the full program before any Run call.
	Init func(prog *Program)
	// Run performs the per-package check.
	Run func(pass *Pass) error
	// Finish, if non-nil, reports whole-program diagnostics after the
	// last Run call.
	Finish func(report func(d Diagnostic))
}

// Diagnostic is one reported finding, with its position resolved. Path,
// when non-empty, is the offending call chain from the reported call
// site down to the intrinsic effect (interprocedural analyzers only).
type Diagnostic struct {
	Pos      token.Position
	Message  string
	Analyzer string
	Path     []string
}

// String renders the diagnostic in the conventional file:line:col form,
// with the call path (if any) indented on a second line.
func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
	if len(d.Path) > 0 {
		s += "\n\tcall path: " + strings.Join(d.Path, " -> ")
	}
	return s
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Prog.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// ReportPathf records a diagnostic at pos carrying an offending call
// path (see Diagnostic.Path).
func (p *Pass) ReportPathf(pos token.Pos, path []string, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Prog.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
		Path:     path,
	})
}

// Program is a set of loaded, type-checked packages sharing a FileSet.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package

	// allows maps filename -> line -> analyzer names allowed there.
	allows map[string]map[int][]string

	// cg is the lazily built interprocedural call graph + fact store
	// shared by the analyzers (see callgraph.go, facts.go).
	cg        *callGraph
	graphOnce sync.Once
}

// graph builds (once) the call graph and solves the fact fixpoint. Safe
// for concurrent use from parallel analyzer passes.
func (prog *Program) graph() *callGraph {
	prog.graphOnce.Do(func() {
		if prog.allows == nil {
			prog.buildAllows()
		}
		prog.cg = buildCallGraph(prog)
		prog.cg.solve()
	})
	return prog.cg
}

// Package is one type-checked package (possibly a test variant).
type Package struct {
	// ListPath is the import path exactly as `go list` printed it, e.g.
	// "peerwindow/internal/core [peerwindow/internal/core.test]".
	ListPath string
	// BasePath is ListPath without the test-variant suffix.
	BasePath string

	Files []*ast.File
	Info  *types.Info
}

// Timing is one analyzer's wall-clock cost over the whole program
// (pwlint -v prints these).
type Timing struct {
	Name     string
	Duration time.Duration
}

// Run executes the analyzers over the program and returns the surviving
// diagnostics, sorted by position, with //pwlint:allow suppressions
// applied.
func Run(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, _, err := RunTimed(prog, analyzers)
	return diags, err
}

// RunTimed is Run plus per-analyzer wall times. Analyzers execute in
// order (their Init/Finish hooks see a quiet program), but each
// analyzer's per-package Run calls execute concurrently — pwlint itself
// is not under the nodeterminism contract, and every Run implementation
// only reads the program and its Init-built state.
func RunTimed(prog *Program, analyzers []*Analyzer) ([]Diagnostic, []Timing, error) {
	prog.buildAllows()
	var diags []Diagnostic
	timings := make([]Timing, 0, len(analyzers))
	for _, a := range analyzers {
		start := time.Now()
		var mu sync.Mutex
		report := func(d Diagnostic) {
			mu.Lock()
			diags = append(diags, d)
			mu.Unlock()
		}
		if a.Init != nil {
			a.Init(prog)
		}
		var wg sync.WaitGroup
		var firstErr error
		for _, pkg := range prog.Packages {
			wg.Add(1)
			go func(pkg *Package) {
				defer wg.Done()
				pass := &Pass{Analyzer: a, Prog: prog, Pkg: pkg, report: report}
				if err := a.Run(pass); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.ListPath, err)
					}
					mu.Unlock()
				}
			}(pkg)
		}
		wg.Wait()
		if firstErr != nil {
			return nil, nil, firstErr
		}
		if a.Finish != nil {
			a.Finish(func(d Diagnostic) {
				d.Analyzer = a.Name
				diags = append(diags, d)
			})
		}
		timings = append(timings, Timing{Name: a.Name, Duration: time.Since(start)})
	}
	kept := diags[:0]
	for _, d := range diags {
		if !prog.allowed(d) {
			kept = append(kept, d)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return kept, timings, nil
}

// allowPrefix is the suppression directive marker. The directive must be
// a // comment whose text starts with this prefix.
const allowPrefix = "pwlint:allow"

// buildAllows indexes every //pwlint:allow directive by file and line.
func (prog *Program) buildAllows() {
	prog.allows = make(map[string]map[int][]string)
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					text = strings.TrimSpace(text)
					if !strings.HasPrefix(text, allowPrefix) {
						continue
					}
					rest := strings.TrimSpace(strings.TrimPrefix(text, allowPrefix))
					fields := strings.Fields(rest)
					if len(fields) == 0 {
						continue
					}
					names := strings.Split(fields[0], ",")
					pos := prog.Fset.Position(c.Pos())
					byLine := prog.allows[pos.Filename]
					if byLine == nil {
						byLine = make(map[int][]string)
						prog.allows[pos.Filename] = byLine
					}
					byLine[pos.Line] = append(byLine[pos.Line], names...)
				}
			}
		}
	}
}

// allowed reports whether d is suppressed by a directive on its own line
// or the line directly above it.
func (prog *Program) allowed(d Diagnostic) bool {
	byLine := prog.allows[d.Pos.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range [2]int{d.Pos.Line, d.Pos.Line - 1} {
		for _, name := range byLine[line] {
			if name == d.Analyzer || name == "all" {
				return true
			}
		}
	}
	return false
}

// allowedAtPos reports whether a diagnostic of the named analyzer at
// pos would be suppressed. The fact engine uses this to keep justified
// effect sites from transitively poisoning callers.
func (prog *Program) allowedAtPos(analyzer string, pos token.Pos) bool {
	return prog.allowed(Diagnostic{Pos: prog.Fset.Position(pos), Analyzer: analyzer})
}

// All returns the pwlint analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		NoDeterminism,
		SchedPure,
		LockSafe,
		NoAlloc,
		MetricName,
	}
}

// isTestFile reports whether the file at pos is a _test.go file.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}
