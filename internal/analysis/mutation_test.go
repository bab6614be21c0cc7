package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"peerwindow/internal/analysis"
)

// TestMutatedRepoIsCaught seeds the canonical evasions into a copy of
// the real repository — a wall-clock read hidden behind an
// out-of-contract helper package, a transitive allocation under a
// //pwlint:noalloc contract, and a "first element of a map" sampler of
// the kind that made the legacy scaled simulator irreproducible — and
// requires the suite to report all three, the interprocedural two with
// the offending call path. This is the in-process twin of the
// CI mutation gate (see .github/workflows/ci.yml): it proves the
// analyzers keep their teeth against the codebase they actually guard,
// not just against fixtures.
func TestMutatedRepoIsCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repo load skipped in -short")
	}
	root := t.TempDir()
	copyRepo(t, "../..", root)

	write := func(rel, content string) {
		p := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("internal/zzmutant/zzmutant.go", `package zzmutant

import "time"

func Coarse() int64 { return time.Now().UnixNano() }
`)
	write("internal/core/zz_mutant.go", `package core

import "peerwindow/internal/zzmutant"

func mutantNow() int64 { return zzmutant.Coarse() }

func mutantScratch(n int) []byte { return make([]byte, n) }

//pwlint:noalloc
func mutantAlloc(n int) int { return len(mutantScratch(n)) }

func mutantSample(m map[uint64]int, k int) (sum int) {
	for _, v := range m {
		if k--; k < 0 {
			break
		}
		sum += v
	}
	return sum
}
`)

	prog, err := analysis.Load(root, "./...")
	if err != nil {
		t.Fatalf("loading mutated repo: %v", err)
	}
	diags, err := analysis.Run(prog, []*analysis.Analyzer{analysis.NoDeterminism, analysis.NoAlloc})
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}

	var gotClock, gotAlloc, gotMapRange bool
	for _, d := range diags {
		switch {
		case d.Analyzer == "nodeterminism" && strings.Contains(d.Message, "zzmutant.Coarse") &&
			strings.Contains(d.Message, "may read the wall clock"):
			gotClock = true
			if len(d.Path) == 0 {
				t.Errorf("clock finding carries no call path: %s", d)
			}
		case d.Analyzer == "noalloc" && strings.Contains(d.Message, "mutantScratch") &&
			strings.Contains(d.Message, "may allocate"):
			gotAlloc = true
			if len(d.Path) == 0 {
				t.Errorf("alloc finding carries no call path: %s", d)
			}
		case d.Analyzer == "nodeterminism" && strings.Contains(d.Message, "range over map m") &&
			strings.Contains(d.Message, "breaks out early"):
			gotMapRange = true
		default:
			t.Errorf("unexpected diagnostic on mutated repo: %s", d)
		}
	}
	if !gotClock {
		t.Error("hidden wall-clock read not reported")
	}
	if !gotAlloc {
		t.Error("transitive noalloc violation not reported")
	}
	if !gotMapRange {
		t.Error("order-sensitive range over a map not reported")
	}
}

// copyRepo copies the module's go.mod and non-test Go sources into dst,
// skipping testdata trees, the build-tagged tools pin, and VCS/tooling
// directories — the minimum surface `go list` needs to type-check the
// module from a scratch directory.
func copyRepo(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata", ".github", ".claude":
				if rel != "." {
					return filepath.SkipDir
				}
			}
			return nil
		}
		base := d.Name()
		keep := base == "go.mod" ||
			(strings.HasSuffix(base, ".go") && !strings.HasSuffix(base, "_test.go") && base != "tools.go")
		if !keep {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		return os.WriteFile(out, b, 0o644)
	})
	if err != nil {
		t.Fatalf("copying repo: %v", err)
	}
}
