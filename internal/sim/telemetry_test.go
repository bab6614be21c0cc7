package sim

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"peerwindow/internal/core"
	"peerwindow/internal/des"
	"peerwindow/internal/telemetry"
	"peerwindow/internal/wire"
)

func engineCollector(c *Cluster, interval des.Time) *telemetry.Collector {
	return telemetry.NewCollector(telemetry.CollectorConfig{
		Clock:          c.Engine.Now,
		BeaconInterval: interval,
	})
}

// getTimeseries fetches one node's /timeseries document from the
// collector's handler; query holds the extra parameters.
func getTimeseries(t *testing.T, col *telemetry.Collector, addr wire.Addr, query string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	url := fmt.Sprintf("/timeseries?node=%d%s", addr, query)
	col.Handler().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	if rec.Code != 200 {
		t.Fatalf("GET %s: status %d: %s", url, rec.Code, rec.Body.String())
	}
	return rec.Body.String()
}

// TestTelemetryCapturesSeries: a running cluster fills the collector's
// per-node sample ring — the one timeseries store — with one point per
// flush, in time order, with cumulative counters that move with live
// probe traffic.
func TestTelemetryCapturesSeries(t *testing.T) {
	c := smallCluster(t, 12, 9)
	ct := c.ExportTelemetry(TelemetryConfig{Interval: 30 * des.Second})
	c.Run(5 * des.Minute)

	type sample struct {
		AtSeconds float64           `json:"at_seconds"`
		Window    int               `json:"window"`
		Counters  map[string]uint64 `json:"counters"`
	}
	for _, sn := range c.Nodes() {
		var got []sample
		body := getTimeseries(t, ct.Collector, sn.Addr, "")
		if err := json.Unmarshal([]byte(body), &got); err != nil {
			t.Fatalf("node %d: %v", sn.Addr, err)
		}
		// 5 min at a 30 s ±20% cadence: 9 to 12 flushes.
		if len(got) < 9 || len(got) > 12 {
			t.Fatalf("node %d: %d samples over 5min at 30s", sn.Addr, len(got))
		}
		if got[0].Window != 11 {
			t.Fatalf("node %d: first sample sees window %d want 11", sn.Addr, got[0].Window)
		}
		prev := got[0]
		for i, s := range got[1:] {
			if s.AtSeconds <= prev.AtSeconds {
				t.Fatalf("node %d sample %d: time %v not after %v", sn.Addr, i+1, s.AtSeconds, prev.AtSeconds)
			}
			for name, v := range prev.Counters {
				if s.Counters[name] < v {
					t.Fatalf("node %d sample %d: counter %s went backwards", sn.Addr, i+1, name)
				}
			}
			prev = s
		}
		// Probing keeps traffic flowing, so the series must actually move.
		if first := got[0]; prev.Counters[core.MetricProbeRounds] == first.Counters[core.MetricProbeRounds] {
			t.Fatalf("node %d: probe.rounds series is flat", sn.Addr)
		}
	}
}

// TestTimeseriesWriteCSV pins the collector's /timeseries CSV shape for a
// cluster's node: the fixed columns plus one per field, one row per
// stored sample, and the last row converging to the node's own counter.
func TestTimeseriesWriteCSV(t *testing.T) {
	c := smallCluster(t, 6, 9)
	ct := c.ExportTelemetry(TelemetryConfig{Interval: time2()})
	c.Run(6 * des.Minute)
	ct.FlushAll()

	for _, sn := range c.Nodes() {
		body := getTimeseries(t, ct.Collector, sn.Addr, "&format=csv&fields="+core.MetricProbeRounds)
		lines := strings.Split(strings.TrimSpace(body), "\n")
		if lines[0] != "seconds,level,window,probe.rounds" {
			t.Fatalf("header = %q", lines[0])
		}
		// Two to three jittered 2-min flushes in 6 min, plus FlushAll.
		if len(lines) < 1+3 {
			t.Fatalf("node %d: csv has %d rows", sn.Addr, len(lines)-1)
		}
		var prev uint64
		for _, ln := range lines[1:] {
			cols := strings.Split(ln, ",")
			if len(cols) != 4 {
				t.Fatalf("row %q has wrong column count", ln)
			}
			v, err := strconv.ParseUint(cols[3], 10, 64)
			if err != nil || v < prev {
				t.Fatalf("node %d: probe.rounds column %q after %d", sn.Addr, cols[3], prev)
			}
			prev = v
		}
		if want := sn.Node.MetricsSnapshot().Counters[core.MetricProbeRounds]; prev != want {
			t.Fatalf("node %d: last row probe.rounds %d, node has %d", sn.Addr, prev, want)
		}
	}
}

// TestTimeseriesWriteCSVFields pins the extended column syntax on a
// cluster's node: counters, gauges, and histogram percentiles in one
// header.
func TestTimeseriesWriteCSVFields(t *testing.T) {
	c := smallCluster(t, 6, 9)
	ct := c.ExportTelemetry(TelemetryConfig{Interval: time2()})
	victim := c.Alive()[2]
	c.Kill(victim) // its ring neighbours observe detect latencies
	c.Run(6 * des.Minute)
	ct.FlushAll()

	fields := "probe.rounds,peer.window_size," +
		"probe.detect_latency_seconds:p50,probe.detect_latency_seconds:p99"
	detected := 0
	for _, sn := range c.Alive() {
		body := getTimeseries(t, ct.Collector, sn.Addr, "&format=csv&fields="+fields)
		lines := strings.Split(strings.TrimSpace(body), "\n")
		if want := "seconds,level,window," + fields; lines[0] != want {
			t.Fatalf("header = %q\n     want %q", lines[0], want)
		}
		observed := sn.Node.MetricsSnapshot().Histograms[core.MetricProbeDetectLatency].Count > 0
		if observed {
			detected++
		}
		for _, ln := range lines[1:] {
			cols := strings.Split(ln, ",")
			if len(cols) != 7 {
				t.Fatalf("row %q has %d columns, want 7", ln, len(cols))
			}
			// Gauge column: the window-size gauge and the beacon's window
			// agree — a node's peer count, at most the 5 other members.
			if cols[4] != cols[2] {
				t.Fatalf("peer.window_size column %q != window %q", cols[4], cols[2])
			}
			if w, err := strconv.Atoi(cols[4]); err != nil || w < 4 || w > 5 {
				t.Fatalf("peer.window_size column = %q, want 4 or 5", cols[4])
			}
			if !observed {
				continue
			}
			// Percentile columns parse as floats and keep 0 < p50 <= p99.
			p50, err1 := strconv.ParseFloat(cols[5], 64)
			p99, err2 := strconv.ParseFloat(cols[6], 64)
			if err1 != nil || err2 != nil || p50 <= 0 || p50 > p99 {
				t.Fatalf("percentile columns %q / %q invalid", cols[5], cols[6])
			}
		}
	}
	if detected == 0 {
		t.Fatal("test degenerated: no node observed a detect latency")
	}
}

// TestTelemetryExactTotals is the PR's determinism acceptance test: a
// seeded run exported through the in-process transport must leave the
// collector holding exactly — counter for counter, bucket for bucket —
// what the nodes' own final MetricsSnapshot says.
func TestTelemetryExactTotals(t *testing.T) {
	c := smallCluster(t, 10, 9)
	ct := c.ExportTelemetry(TelemetryConfig{Interval: 10 * des.Second})
	c.Run(5 * des.Minute)
	c.Kill(c.Alive()[3]) // a crash mid-run must not break accounting
	c.Run(2 * des.Minute)
	ct.FlushAll()

	for _, sn := range c.Nodes() {
		want := sn.Node.MetricsSnapshot()
		got, ok := ct.Collector.NodeTotals(sn.Addr)
		if !ok {
			t.Fatalf("node %d unknown to collector", sn.Addr)
		}
		for name, w := range want.Counters {
			if got.Counters[name] != w {
				t.Fatalf("node %d counter %s: collector %d, node %d",
					sn.Addr, name, got.Counters[name], w)
			}
		}
		for name, g := range got.Counters {
			if want.Counters[name] != g {
				t.Fatalf("node %d counter %s: collector has %d, node has %d",
					sn.Addr, name, g, want.Counters[name])
			}
		}
		for name, wh := range want.Histograms {
			gh := got.Histograms[name]
			if gh.Count != wh.Count || gh.Sum != wh.Sum {
				t.Fatalf("node %d histogram %s: collector count=%d sum=%v, node count=%d sum=%v",
					sn.Addr, name, gh.Count, gh.Sum, wh.Count, wh.Sum)
			}
			if wh.Count == 0 {
				continue // never observed, never exported
			}
			for i := range wh.Counts {
				if gh.Counts[i] != wh.Counts[i] {
					t.Fatalf("node %d histogram %s bucket %d: %d vs %d",
						sn.Addr, name, i, gh.Counts[i], wh.Counts[i])
				}
			}
		}
		if st := ct.ExporterStats(sn.Addr); st.FramesDropped != 0 {
			t.Fatalf("node %d dropped %d frames on a clean transport", sn.Addr, st.FramesDropped)
		}
	}
}

// TestTelemetryInducedDrops drops a deterministic subset of frames on
// the wire and proves the books still balance: for every node,
// node totals = collector totals + deltas inside the dropped frames,
// and the collector's frames_missing equals exactly the induced count.
func TestTelemetryInducedDrops(t *testing.T) {
	c := smallCluster(t, 8, 17)
	interval := 10 * des.Second
	collector := engineCollector(c, interval)

	dropped := map[wire.Addr][]*telemetry.Frame{}
	var sends int
	var final bool
	ct := c.ExportTelemetry(TelemetryConfig{
		Interval:  interval,
		Collector: collector,
		Sink: func(sn *SimNode, b []byte) error {
			sends++
			if !final && sends%5 == 0 { // eat every 5th frame after the sink accepted it
				f, err := telemetry.Unmarshal(b)
				if err != nil {
					t.Fatalf("decode dropped frame: %v", err)
				}
				dropped[sn.Addr] = append(dropped[sn.Addr], f)
				return nil
			}
			return collector.Ingest(b)
		},
	})
	c.Run(5 * des.Minute)
	// The closing flush is delivered loss-free so every earlier gap is
	// observable (a gap only shows once a later frame arrives).
	final = true
	ct.FlushAll()

	if len(dropped) == 0 {
		t.Fatal("test degenerated: nothing was dropped")
	}
	for _, sn := range c.Nodes() {
		want := sn.Node.MetricsSnapshot()
		got, _ := collector.NodeTotals(sn.Addr)
		lost := map[string]uint64{}
		for _, f := range dropped[sn.Addr] {
			for name, v := range f.Delta.Counters {
				lost[name] += v
			}
		}
		names := map[string]bool{}
		for n := range want.Counters {
			names[n] = true
		}
		for n := range got.Counters {
			names[n] = true
		}
		for name := range names {
			if got.Counters[name]+lost[name] != want.Counters[name] {
				t.Fatalf("node %d counter %s: collector %d + lost %d != node %d",
					sn.Addr, name, got.Counters[name], lost[name], want.Counters[name])
			}
		}
		_, missing, _, _, _ := collector.NodeStats(sn.Addr)
		if int(missing) != len(dropped[sn.Addr]) {
			t.Fatalf("node %d frames_missing=%d, induced %d", sn.Addr, missing, len(dropped[sn.Addr]))
		}
	}
}

// TestTelemetryRefusedSinkLosesNothing: when the sink refuses frames
// (buffer full), deltas are re-buffered by the exporter instead of
// lost, so totals still converge exactly once the sink recovers.
func TestTelemetryRefusedSinkLosesNothing(t *testing.T) {
	c := smallCluster(t, 6, 29)
	interval := 10 * des.Second
	collector := engineCollector(c, interval)
	var sends, refused int
	ct := c.ExportTelemetry(TelemetryConfig{
		Interval:  interval,
		Collector: collector,
		Sink: func(sn *SimNode, b []byte) error {
			sends++
			if sends%4 == 0 {
				refused++
				return errors.New("sink full")
			}
			return collector.Ingest(b)
		},
	})
	c.Run(4 * des.Minute)
	// Flush until every node's pending delta got through (at most one
	// refusal per node per round at a 1-in-4 refusal rate).
	for i := 0; i < 4; i++ {
		ct.FlushAll()
	}

	for _, sn := range c.Nodes() {
		want := sn.Node.MetricsSnapshot()
		got, _ := collector.NodeTotals(sn.Addr)
		for name, w := range want.Counters {
			if got.Counters[name] != w {
				t.Fatalf("node %d counter %s: collector %d != node %d after refusals",
					sn.Addr, name, got.Counters[name], w)
			}
		}
	}
	if refused == 0 {
		t.Fatal("test degenerated: sink never refused")
	}
}

// TestTelemetryDeterministic runs the same seeded, lossy scenario twice
// and demands byte-identical frame streams and health documents.
func TestTelemetryDeterministic(t *testing.T) {
	run := func() ([32]byte, []byte) {
		c := smallCluster(t, 8, 23)
		interval := 10 * des.Second
		collector := engineCollector(c, interval)
		h := sha256.New()
		ct := c.ExportTelemetry(TelemetryConfig{
			Interval:  interval,
			Collector: collector,
			Sink: func(sn *SimNode, b []byte) error {
				h.Write(b)
				return collector.Ingest(b)
			},
		})
		c.Kill(c.Alive()[2])
		c.Run(4 * des.Minute)
		ct.FlushAll()
		doc, err := json.Marshal(collector.Health())
		if err != nil {
			t.Fatal(err)
		}
		var sum [32]byte
		h.Sum(sum[:0])
		return sum, doc
	}
	h1, d1 := run()
	h2, d2 := run()
	if h1 != h2 {
		t.Fatalf("frame streams differ between identical seeded runs")
	}
	if string(d1) != string(d2) {
		t.Fatalf("health documents differ:\n%s\n%s", d1, d2)
	}
}

// TestTelemetryCrashStaleness: a killed node stops beaconing and the
// collector flags it within two beacon intervals, in virtual time.
func TestTelemetryCrashStaleness(t *testing.T) {
	c := smallCluster(t, 6, 31)
	ct := c.ExportTelemetry(TelemetryConfig{Interval: 10 * des.Second})
	c.Run(time2())

	victim := c.Alive()[1]
	c.Kill(victim)
	c.Run(20 * des.Second) // two beacon intervals

	doc := ct.Collector.Health()
	var row *telemetry.NodeHealth
	for i := range doc.Nodes {
		if doc.Nodes[i].Addr == uint64(victim.Addr) {
			row = &doc.Nodes[i]
		}
	}
	if row == nil {
		t.Fatalf("victim missing from health doc")
	}
	stale := false
	for _, a := range row.Alerts {
		if a == "stale" || a == "down" {
			stale = true
		}
	}
	if !stale {
		t.Fatalf("victim not flagged within 2 beacon intervals: alerts=%v last_seen=%vs",
			row.Alerts, row.LastSeenSeconds)
	}
	// The live nodes must not be flagged.
	for _, n := range doc.Nodes {
		if n.Addr == uint64(victim.Addr) {
			continue
		}
		for _, a := range n.Alerts {
			if a == "stale" || a == "down" {
				t.Fatalf("healthy node %d flagged %q", n.Addr, a)
			}
		}
	}
}

// TestTelemetryLateJoinersAttach: nodes added after ExportTelemetry
// still get exporters via the onAddNode hook.
func TestTelemetryLateJoinersAttach(t *testing.T) {
	cfg := ClusterConfig{Core: core.DefaultConfig(), Seed: 3}
	c := NewCluster(cfg)
	first := c.AddNode(1e9)
	c.Bootstrap(first)
	ct := c.ExportTelemetry(TelemetryConfig{Interval: 10 * des.Second})

	sn := c.AddNode(1e9)
	if err := c.Join(sn, first, des.Hour); err != nil {
		t.Fatal(err)
	}
	c.Run(time2())
	if _, ok := ct.Collector.NodeTotals(sn.Addr); !ok {
		t.Fatalf("late joiner never reached the collector")
	}
	agg := ct.Collector.Aggregate()
	if len(agg.Counters) == 0 {
		t.Fatalf("aggregate empty")
	}
}
