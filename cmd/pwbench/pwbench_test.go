package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestSmoke runs every workload untraced and traced at toy scale. It is
// the check that every metric and workload named in BENCHMARK.json is
// emitted where it applies, that every output check passes and that no
// operation fails.
func TestSmoke(t *testing.T) {
	var out bytes.Buffer
	if err := runSmoke(&out, 1, t.TempDir()); err != nil {
		t.Fatalf("smoke failed: %v\n%s", err, out.String())
	}
}

// TestManifestMatchesBenchmarkJSON keeps the repository's BENCHMARK.json
// and the tables in this package the same thing, and inside the limits
// the benchmark driver refuses a file for.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var onDisk benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatal(err)
	}
	want := manifestOf()
	if !reflect.DeepEqual(onDisk, want) {
		t.Errorf("BENCHMARK.json differs from the tables in metrics.go; regenerate it with `go run . -manifest > ../../BENCHMARK.json`")
	}

	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !metricName.MatchString(n) || len(n) > 64 {
			t.Errorf("%s name %q is malformed", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(want.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2–8", n)
	}
	for _, w := range want.Workloads {
		name("workload", w.Name)
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(want.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1–16", n)
	}
	setup := false
	for _, m := range want.EndToEnd {
		name("metric", m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is malformed", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if n := len(want.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1–128", n)
	}
	for _, m := range want.PerLayer {
		name("metric", m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is malformed", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	if want.RunSeconds < 1 || want.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1–60", want.RunSeconds)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "op_p50_ms", better: "lower"}
	higher := metricDef{name: "ops_per_s", better: "higher"}
	v := func(value, spread float64) metricValue { return metricValue{Value: value, Spread: spread} }
	for _, c := range []struct {
		d    metricDef
		a, b metricValue
		want string
	}{
		{lower, v(100, 0.01), v(105, 0.01), "same"},
		{lower, v(100, 0.01), v(120, 0.01), "worse"},
		{lower, v(100, 0.01), v(80, 0.01), "better"},
		{higher, v(100, 0.01), v(80, 0.01), "worse"},
		{higher, v(100, 0.01), v(120, 0.01), "better"},
		{higher, v(100, 0.30), v(50, 0.01), "unresolved"},
		{lower, v(100, 0.01), v(150, 0.30), "unresolved"},
		{lower, v(0, 0), v(0, 0), "same"},
	} {
		if got := verdict(c.d, 0.10, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v → %v) = %s, want %s", c.d.better, c.a, c.b, got, c.want)
		}
	}
}
