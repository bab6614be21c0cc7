package main

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"peerwindow/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

func TestIntroTableContents(t *testing.T) {
	out := introTable().Render()
	for _, want := range []string{"99.58%", "833", "6000", "20.0", "tree"} {
		if !strings.Contains(out, want) {
			t.Fatalf("intro table missing %q:\n%s", want, out)
		}
	}
}

func TestMcastTableProperties(t *testing.T) {
	out := mcastTable(24, 3, "").Render()
	for _, want := range []string{"audience reached", "23/23", "root out-degree"} {
		if !strings.Contains(out, want) {
			t.Fatalf("mcast table missing %q:\n%s", want, out)
		}
	}
}

// TestFullFidelityGolden pins the three full-fidelity tables (multicast
// properties, split system, multicast delay) for seed 1 byte for byte, so
// a change to how the cluster counts deliveries, forwards or steps cannot
// move them unnoticed. Regenerate with
// `go test ./cmd/pwsim -run TestFullFidelityGolden -update`.
func TestFullFidelityGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other ports fuse multiply-adds, which may move a latency draw
		// in its last bit (see sim.TestFiguresGolden).
		t.Skipf("golden full-fidelity output is pinned on amd64, not %s", runtime.GOARCH)
	}
	golden := filepath.Join("testdata", "fullfidelity_seed1.golden")
	got := mcastTable(64, 1, "").Render() + "\n" +
		splitTable(1).Render() + "\n" +
		sim.DelayTable(sim.MeasureMulticastDelay(96, 5, 1)).Render() + "\n"
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("full-fidelity output for seed 1 differs from %s (rerun with -update if the change is intended)\n--- got ---\n%s\n--- want ---\n%s",
			golden, got, want)
	}
}

func TestParseHelpers(t *testing.T) {
	ints := parseInts("5000, 10000,20000")
	if len(ints) != 3 || ints[0] != 5000 || ints[2] != 20000 {
		t.Fatalf("parseInts = %v", ints)
	}
	floats := parseFloats("0.1, 1 ,10")
	if len(floats) != 3 || floats[0] != 0.1 || floats[2] != 10 {
		t.Fatalf("parseFloats = %v", floats)
	}
}
