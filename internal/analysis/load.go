package analysis

// This file loads fully type-checked packages without depending on
// golang.org/x/tools/go/packages. The trick: `go list -export` makes the
// toolchain compile (or reuse from the build cache) every package and
// report the path of its export data, and the standard library's gc
// importer can read export data written by the same toolchain version.
// Loading therefore runs completely offline, handles test variants
// (`-test`), and gives each target package real types.Info — enough for
// every pwlint analyzer.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
)

// listPackage mirrors the subset of `go list -json` output the loader
// consumes.
type listPackage struct {
	Dir        string
	ImportPath string
	Export     string
	ForTest    string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// Load builds a Program for the packages matching patterns, resolved
// relative to dir. Test variants are loaded in place of their plain
// packages, so _test.go files are analyzed too.
func Load(dir string, patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-e", "-export", "-test", "-deps",
		"-json=Dir,ImportPath,Export,ForTest,Standard,DepOnly,GoFiles,ImportMap,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list: %v\n%s", err, stderr.String())
	}

	byPath := make(map[string]*listPackage)
	var order []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		q := p
		byPath[q.ImportPath] = &q
		order = append(order, &q)
	}

	// A package is analyzed when it matched the patterns (not DepOnly),
	// is not part of the standard library, and is not a generated
	// "<pkg>.test" main. When a test variant of a package exists, it
	// subsumes the plain package (same files plus the in-package tests),
	// so the plain one is skipped to avoid duplicate diagnostics.
	hasTestVariant := make(map[string]bool)
	for _, p := range order {
		if p.ForTest != "" && baseImportPath(p.ImportPath) == p.ForTest {
			hasTestVariant[p.ForTest] = true
		}
	}
	prog := &Program{Fset: token.NewFileSet()}
	var targets []*listPackage
	for _, p := range order {
		if p.DepOnly || p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		if strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		if p.ForTest == "" && hasTestVariant[p.ImportPath] {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", p.ImportPath, p.Error.Err)
		}
		targets = append(targets, p)
	}
	// Type-check the targets concurrently: each package checks against
	// its dependencies' export data with its own importer, the shared
	// FileSet is internally locked, and the slot order keeps
	// prog.Packages deterministic. (pwlint itself is not under the
	// nodeterminism contract.)
	pkgs := make([]*Package, len(targets))
	errs := make([]error, len(targets))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, p := range targets {
		wg.Add(1)
		go func(i int, p *listPackage) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			pkgs[i], errs[i] = typeCheck(prog.Fset, p, byPath)
		}(i, p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	prog.Packages = pkgs
	return prog, nil
}

// baseImportPath strips the " [test.variant]" suffix go list appends.
func baseImportPath(listPath string) string {
	if i := strings.IndexByte(listPath, ' '); i >= 0 {
		return listPath[:i]
	}
	return listPath
}

// typeCheck parses and type-checks one listed package against the export
// data of its dependencies.
func typeCheck(fset *token.FileSet, p *listPackage, byPath map[string]*listPackage) (*Package, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		path := filepath.Join(p.Dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %v", err)
		}
		files = append(files, f)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := p.ImportMap[path]; ok {
			path = mapped
		}
		dep, ok := byPath[path]
		if !ok || dep.Export == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(dep.Export)
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", lookup)}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	base := baseImportPath(p.ImportPath)
	if _, err := conf.Check(base, fset, files, info); err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", p.ImportPath, err)
	}
	return &Package{
		ListPath: p.ImportPath,
		BasePath: base,
		Files:    files,
		Info:     info,
	}, nil
}
