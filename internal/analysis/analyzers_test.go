package analysis_test

import (
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
