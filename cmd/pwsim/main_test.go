package main

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"peerwindow/internal/des"
	"peerwindow/internal/metrics"
	"peerwindow/internal/sim"
	"peerwindow/internal/workload"
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

// TestFullFidelityGolden pins the full-fidelity tables for seed 1 byte
// for byte: multicast properties, split system and multicast delay, which
// run without churn, and the Fig 5–8 tables of a 250-node run under
// Gnutella churn with half the departures crashes, which covers the kill,
// leave and dead-node paths. A change to how the cluster counts
// deliveries, forwards or steps, or to what a departure leaves behind,
// cannot move them unnoticed. Regenerate with
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
		sim.DelayTable(sim.MeasureMulticastDelay(96, 5, 1)).Render() + "\n" +
		departuresTables()
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

// departuresTables renders the Fig 5–8 tables of RunCommonFull at 250
// nodes and seed 1, with lifetimes compressed to 12 minutes so churn
// replaces about a third of the population in the 30 virtual minutes.
func departuresTables() string {
	wl := workload.DefaultConfig()
	wl.MeanLifetime = 12 * des.Minute
	r := sim.RunCommonFull(250, wl, 1, 15*des.Minute, 15*des.Minute)
	var b strings.Builder
	for _, t := range []*metrics.Table{sim.Fig5Table(r), sim.Fig6Table(r), sim.Fig7Table(r), sim.Fig8Table(r)} {
		b.WriteString(t.Render() + "\n")
	}
	return b.String()
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
