package core

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strconv"
	"strings"
	"testing"

	"peerwindow/internal/xrand"
)

// A node's instruments are fields named by nodeInstruments; these tests
// pin the table to the Metric* constants and the snapshot to the names
// and shapes readers, the /metrics text and telemetry frames rely on.

// TestNewNodeAllocations: a node's instruments, meters and, on a pooled
// Env, its storage cost NewNode no allocation of their own.
func TestNewNodeAllocations(t *testing.T) {
	cfg := quietConfig()
	env := &countingEnv{rng: xrand.New(1)}
	var pooled Env = pooledEnv{env, new(ChunkPool)}
	own := testing.AllocsPerRun(100, func() { NewNode(cfg, env, Observer{}, ptrAt("0000", 0, 1)) })
	shared := testing.AllocsPerRun(100, func() { NewNode(cfg, pooled, Observer{}, ptrAt("0000", 0, 1)) })
	if own > 30 || shared > 30 {
		t.Fatalf("NewNode makes %v allocations with its own pool, %v with a shared one; want at most 30", own, shared)
	}
	if shared >= own {
		t.Fatalf("NewNode makes %v allocations with a shared pool, %v with its own: it builds a pool it drops", shared, own)
	}
}

// metricConstants returns the value of every Metric* constant declared in
// metrics.go, by constant name.
func metricConstants(t *testing.T) map[string]string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "metrics.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, d := range f.Decls {
		g, ok := d.(*ast.GenDecl)
		if !ok || g.Tok != token.CONST {
			continue
		}
		for _, spec := range g.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if !strings.HasPrefix(name.Name, "Metric") {
					continue
				}
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok {
					t.Fatalf("%s is not a string literal", name.Name)
				}
				out[name.Name], _ = strconv.Unquote(lit.Value)
			}
		}
	}
	return out
}

// TestInstrumentTableNamesEveryMetricOnce: every Metric* constant of
// metrics.go is named by exactly one row of nodeInstruments, the removal
// prefix once for each reason, and every row by a constant.
func TestInstrumentTableNamesEveryMetricOnce(t *testing.T) {
	rows := map[string]int{}
	for _, d := range nodeInstruments {
		rows[d.name]++
		kinds := 0
		for _, set := range []bool{d.counter != nil, d.hist != nil, d.gauge != nil} {
			if set {
				kinds++
			}
		}
		if kinds != 1 || (d.hist != nil) != (d.bounds != nil) {
			t.Errorf("row %q is not one counter, histogram with bounds, or gauge", d.name)
		}
	}
	want := map[string]int{}
	for name, v := range metricConstants(t) {
		if name == "MetricPeersRemovedPrefix" {
			for r := RemoveLeave; r <= RemoveShift; r++ {
				want[v+r.String()]++
			}
			continue
		}
		want[v]++
	}
	if len(want) != 33 {
		t.Fatalf("metrics.go names %d instruments, want 33", len(want))
	}
	for name := range want {
		if rows[name] != 1 {
			t.Errorf("%q is named by %d rows, want 1", name, rows[name])
		}
	}
	for name := range rows {
		if want[name] == 0 {
			t.Errorf("row %q names no Metric* constant", name)
		}
	}
}

// TestMetricsSnapshotShape: the snapshot holds exactly the counters,
// gauges and histograms (with their bounds) that the registry a node
// used to build held, so a /metrics scrape and a telemetry frame read
// the same names.
func TestMetricsSnapshotShape(t *testing.T) {
	n := NewNode(quietConfig(), newFakeEnv(1), Observer{}, ptrAt("0000", 0, 1))
	var got []string
	s := n.MetricsSnapshot()
	for name := range s.Counters {
		got = append(got, "counter "+name)
	}
	for name := range s.Gauges {
		got = append(got, "gauge "+name)
	}
	for name, h := range s.Histograms {
		got = append(got, fmt.Sprint("histogram ", name, h.Bounds, " ", len(h.Counts)))
	}
	slices.Sort(got)
	want := []string{
		"counter ack.failures", "counter ack.retries",
		"counter failure.false_alarms", "counter failure.verified",
		"counter level.shifts_down", "counter level.shifts_up",
		"counter multicast.delivered", "counter multicast.duplicates",
		"counter multicast.forwards", "counter multicast.originated",
		"counter multicast.redirects", "counter peers.added",
		"counter peers.removed.expired", "counter peers.removed.leave",
		"counter peers.removed.shift", "counter peers.removed.stale",
		"counter probe.failures", "counter probe.retries", "counter probe.rounds",
		"counter reconcile.dropped_pointers", "counter reconcile.runs",
		"counter refresh.expired_pointers", "counter refresh.self_multicasts",
		"counter report.escalations", "counter report.sent",
		"counter split.captures", "counter toplist.cross_part_refreshes",
		"gauge peer.input_rate_bps", "gauge peer.level",
		"gauge peer.output_rate_bps", "gauge peer.window_size",
		"histogram multicast.step_depth[1 2 4 8 12 16 24 32 64 128] 11",
		"histogram probe.detect_latency_seconds[0.1 0.25 0.5 1 2.5 5 10 15 30 60 120 300] 13",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("snapshot holds\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestMetricsRegistryIsTheNodes: an increment or observation through the
// registry Metrics returns, the way pwbench's probe and pwsim read a
// node, is the node's own: the next MetricsSnapshot and the next
// registry show it.
func TestMetricsRegistryIsTheNodes(t *testing.T) {
	n := NewNode(quietConfig(), newFakeEnv(1), Observer{}, ptrAt("0000", 0, 1))
	rounds := n.Metrics().Counter(MetricProbeRounds)
	rounds.Inc()
	rounds.Inc()
	n.Metrics().Histogram(MetricProbeDetectLatency, nil).Observe(3)
	n.m.probeRounds.Inc()
	s := n.MetricsSnapshot()
	if got := s.Counters[MetricProbeRounds]; got != 3 {
		t.Fatalf("%s = %d in the snapshot, want 3", MetricProbeRounds, got)
	}
	if h := s.Histograms[MetricProbeDetectLatency]; h.Count != 1 || h.Counts[5] != 1 {
		t.Fatalf("%s = %+v in the snapshot, want one observation in (2.5, 5]", MetricProbeDetectLatency, h)
	}
	if got := n.Metrics().Counter(MetricProbeRounds).Value(); got != 3 {
		t.Fatalf("a second registry reads %s = %d, want 3", MetricProbeRounds, got)
	}
	if names := len(n.Metrics().Snapshot().Counters); names != 27 {
		t.Fatalf("the registry holds %d counters, want 27", names)
	}
}
