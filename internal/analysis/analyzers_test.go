package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"peerwindow/internal/analysis"
	"peerwindow/internal/analysis/analysistest"
)

// Each fixture carries at least one positive case per rule, at least one
// clean negative case, and a //pwlint:allow suppression; the runner
// fails on unexpected diagnostics and unmet expectations alike.

func TestNoDeterminism(t *testing.T) {
	analysistest.Run(t, analysis.NoDeterminism, "nodeterminism")
}

func TestSchedPure(t *testing.T) {
	analysistest.Run(t, analysis.SchedPure, "schedpure")
}

func TestLockSafe(t *testing.T) {
	analysistest.Run(t, analysis.LockSafe, "locksafe")
}

// TestLockSafeInterfacePath: an interface call under a lock with one
// blocking implementation among quiet ones is reported with the call
// path down to that implementation's channel send.
func TestLockSafeInterfacePath(t *testing.T) {
	dir := t.TempDir()
	src, err := os.ReadFile(filepath.Join("testdata", "src", "locksafe", "locksafe.go"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "locksafe.go"), src, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module pwfixture\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	prog, err := analysis.Load(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(prog, []*analysis.Analyzer{analysis.LockSafe})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if !strings.Contains(d.Message, "alarmer.Send") {
			continue
		}
		if len(d.Path) != 1 || !strings.HasPrefix(d.Path[0], "pwfixture.siren.Send (locksafe.go:") ||
			!strings.HasSuffix(d.Path[0], ": channel send)") {
			t.Fatalf("call path %q, want siren.Send's channel send", d.Path)
		}
		return
	}
	t.Fatal("no diagnostic for the alarmer.Send call")
}

func TestNoAlloc(t *testing.T) {
	analysistest.Run(t, analysis.NoAlloc, "noalloc")
}

// TestSuiteCleanOnRepo is the acceptance gate pwlint enforces in CI,
// asserted here too so `go test ./...` catches regressions even when the
// pwlint step is skipped: the repository itself carries zero
// diagnostics.
func TestSuiteCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repo load skipped in -short")
	}
	prog, err := analysis.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading repo: %v", err)
	}
	diags, err := analysis.Run(prog, analysis.All())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
