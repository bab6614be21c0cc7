package analysis_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"peerwindow/internal/analysis"
)

// TestMutatedRepoIsCaught seeds the canonical evasions into a copy of
// the real repository — a wall-clock read hidden behind an
// out-of-contract helper package, a transitive allocation under a
// //pwlint:noalloc contract, a "first element of a map" sampler of the
// kind that made the legacy scaled simulator irreproducible, and a
// channel send inside transport.Host.Deliver's critical section — and
// requires the suite to report all four, the interprocedural two with
// the offending call path. It proves the analyzers keep their teeth
// against the codebase they actually guard, not just against fixtures.
// It then runs the pwlint command on the same copy to pin its CLI
// contract: with -json it exits 1 and prints one object per diagnostic,
// each naming its analyzer.
func TestMutatedRepoIsCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repo load skipped in -short")
	}
	root := t.TempDir()
	copyRepo(t, "../..", root)

	// The send goes into the live host's own lock, so the test fails if
	// Deliver stops holding it where locksafe can see.
	hostGo := filepath.Join(root, "internal", "transport", "host.go")
	host, err := os.ReadFile(hostGo)
	if err != nil {
		t.Fatal(err)
	}
	const anchor = "\th.node.HandleMessage(msg)\n"
	if !strings.Contains(string(host), anchor) {
		t.Fatalf("host.go has no %q to seed the send after", anchor)
	}
	host = []byte(strings.Replace(string(host), anchor, anchor+"\tmutantDelivered <- msg\n", 1))
	if err := os.WriteFile(hostGo, host, 0o644); err != nil {
		t.Fatal(err)
	}

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
	write("internal/transport/zz_mutant.go", `package transport

import "peerwindow/internal/wire"

var mutantDelivered = make(chan wire.Message, 1)
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
	diags, err := analysis.Run(prog, []*analysis.Analyzer{analysis.NoDeterminism, analysis.NoAlloc, analysis.LockSafe})
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}

	var gotClock, gotAlloc, gotMapRange, gotHostSend bool
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
		case d.Analyzer == "locksafe" && filepath.Base(d.Pos.Filename) == "host.go" &&
			strings.Contains(d.Message, "channel send while h.mu is held"):
			gotHostSend = true
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
	if !gotHostSend {
		t.Error("channel send under Host.Deliver's lock not reported")
	}

	cmd := exec.Command("go", "run", "./cmd/pwlint", "-json", "./...")
	cmd.Dir = root
	out, err := cmd.Output()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("pwlint -json on the mutated repo: %v, want exit status 1\n%s", err, out)
	}
	analyzers := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		var d struct{ Analyzer string }
		if err := json.Unmarshal([]byte(line), &d); err != nil || d.Analyzer == "" {
			t.Fatalf("pwlint -json printed %q, not a diagnostic object (%v)", line, err)
		}
		analyzers[d.Analyzer] = true
	}
	if !analyzers["nodeterminism"] || !analyzers["noalloc"] || !analyzers["locksafe"] {
		t.Errorf("pwlint -json named analyzers %v, want nodeterminism, noalloc and locksafe", analyzers)
	}
	for _, want := range []string{"zzmutant.Coarse", "mutantScratch", "range over map m", "channel send while h.mu is held"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("pwlint -json output does not mention %q", want)
		}
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
