package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"peerwindow/internal/des"
	"peerwindow/internal/metrics"
	"peerwindow/internal/trace"
	"peerwindow/internal/wire"
)

// testClock is a settable collector clock.
type testClock struct{ now des.Time }

func (c *testClock) Now() des.Time { return c.now }

func newTestCollector(clk *testClock) *Collector {
	return NewCollector(CollectorConfig{
		Clock:          clk.Now,
		BeaconInterval: 2 * des.Second,
	})
}

// exporterTo wires an exporter straight into a collector.
func exporterTo(c *Collector, node wire.Addr, name string) *Exporter {
	return NewExporter(ExporterConfig{Node: node, Name: name}, SinkFunc(c.Ingest))
}

func TestCollectorAccumulatesDeltas(t *testing.T) {
	clk := &testClock{}
	c := newTestCollector(clk)
	e := exporterTo(c, 1, "n1")

	reg := metrics.NewRegistry()
	ctr := reg.Counter("probe.sent")
	h := reg.Histogram("probe.detect_latency_seconds", []float64{1, 10})

	ctr.Add(3)
	h.Observe(0.5)
	clk.now = 1 * des.Second
	e.Flush(clk.now, reg.Snapshot(), Beacon{Level: 1, Window: 4})

	ctr.Add(4)
	h.Observe(20)
	clk.now = 2 * des.Second
	e.Flush(clk.now, reg.Snapshot(), Beacon{Level: 2, Window: 8})

	got, ok := c.NodeTotals(1)
	if !ok {
		t.Fatalf("node unknown")
	}
	want := reg.Snapshot()
	if got.Counters["probe.sent"] != want.Counters["probe.sent"] {
		t.Fatalf("counter total %d, want %d", got.Counters["probe.sent"], want.Counters["probe.sent"])
	}
	gh, wh := got.Histograms["probe.detect_latency_seconds"], want.Histograms["probe.detect_latency_seconds"]
	if gh.Count != wh.Count || gh.Sum != wh.Sum {
		t.Fatalf("histogram total %+v, want %+v", gh, wh)
	}
	agg := c.Aggregate()
	if agg.Counters["probe.sent"] != 7 {
		t.Fatalf("aggregate %d, want 7", agg.Counters["probe.sent"])
	}
}

// TestCollectorSeqGapAccounting is the induced-drop acceptance test at
// the unit level: every delta missing from the collector is accounted
// for by a sequence gap whose frames we kept on the side.
func TestCollectorSeqGapAccounting(t *testing.T) {
	clk := &testClock{}
	c := newTestCollector(clk)

	// A lossy wire: drop frames 2 and 4 (0-indexed sends), but remember
	// what they carried.
	var sends int
	var lost []*Frame
	sink := SinkFunc(func(b []byte) error {
		sends++
		if sends == 3 || sends == 5 {
			f, err := Unmarshal(b)
			if err != nil {
				t.Fatalf("lost-frame decode: %v", err)
			}
			lost = append(lost, f)
			return nil // network loss: sink accepted, collector never saw it
		}
		return c.Ingest(b)
	})
	e := NewExporter(ExporterConfig{Node: 9, Name: "n9"}, sink)

	reg := metrics.NewRegistry()
	ctr := reg.Counter("a")
	for i := 1; i <= 6; i++ {
		ctr.Add(uint64(i))
		clk.now = des.Time(i) * des.Second
		e.Flush(clk.now, reg.Snapshot(), Beacon{})
	}

	_, missing, _, _, ok := c.NodeStats(9)
	if !ok || missing != 2 {
		t.Fatalf("frames_missing=%d, want 2", missing)
	}
	// node totals = collector totals + deltas inside the lost frames.
	var lostDelta uint64
	for _, f := range lost {
		lostDelta += f.Delta.Counters["a"]
	}
	got, _ := c.NodeTotals(9)
	if got.Counters["a"]+lostDelta != ctr.Value() {
		t.Fatalf("accounting broken: collector %d + lost %d != node %d",
			got.Counters["a"], lostDelta, ctr.Value())
	}
	if lostDelta == 0 {
		t.Fatalf("test degenerated: lost frames carried no delta")
	}
}

func TestCollectorLateFrame(t *testing.T) {
	clk := &testClock{}
	c := newTestCollector(clk)
	mk := func(seq uint64, delta uint64, gauge int64) *Frame {
		return &Frame{
			Node: 5, Seq: seq, At: des.Time(seq) * des.Second,
			Delta: metrics.Snapshot{
				Counters: map[string]uint64{"a": delta},
				Gauges:   map[string]int64{"g": gauge},
			},
		}
	}
	c.IngestFrame(mk(0, 1, 10))
	c.IngestFrame(mk(2, 4, 30)) // frame 1 presumed lost
	_, missing, _, _, _ := c.NodeStats(5)
	if missing != 1 {
		t.Fatalf("missing=%d, want 1", missing)
	}
	c.IngestFrame(mk(1, 2, 20)) // it was just late
	_, missing, _, _, _ = c.NodeStats(5)
	if missing != 0 {
		t.Fatalf("missing=%d after late arrival, want 0", missing)
	}
	got, _ := c.NodeTotals(5)
	if got.Counters["a"] != 7 {
		t.Fatalf("late counter delta not applied: %d, want 7", got.Counters["a"])
	}
	if got.Gauges["g"] != 30 {
		t.Fatalf("late frame overwrote gauge: %d, want 30", got.Gauges["g"])
	}
}

// TestCollectorRestartedExporter restarts a node on the same address:
// its fresh exporter starts again at Seq 0, and the collector must take
// that frame as a new stream — beacon, liveness and deltas applied, no
// frame late, missing or regressed — rather than as a late frame of the
// old one, which would leave the live node stale until its new sequence
// passed the old.
func TestCollectorRestartedExporter(t *testing.T) {
	clk := &testClock{}
	c := newTestCollector(clk) // BeaconInterval = 2 s
	flush := func(e *Exporter, at des.Time, count uint64, level int) {
		clk.now = at
		e.Flush(at, snapOf(map[string]uint64{"a": count}, nil), Beacon{Level: level})
	}
	old := exporterTo(c, 7, "n7")
	for i := 1; i <= 6; i++ {
		flush(old, des.Time(2*i)*des.Second, uint64(10*i), 2)
	}
	// The node crashes after its frame at 12 s and is back at 20 s.
	restarted := exporterTo(c, 7, "n7")
	flush(restarted, 20*des.Second, 4, 0)
	flush(restarted, 22*des.Second, 9, 0)

	clk.now = 23 * des.Second
	n := healthOf(c.Health(), 7)
	if hasAlert(n, "stale") || hasAlert(n, "down") || n.Level != 0 {
		t.Fatalf("restarted node reads alerts %v at level %d, want live at level 0", n.Alerts, n.Level)
	}
	got, _ := c.NodeTotals(7)
	if got.Counters["a"] != 60+9 {
		t.Fatalf("counter total %d, want 69 (60 before the restart, 9 after)", got.Counters["a"])
	}
	received, missing, _, _, _ := c.NodeStats(7)
	self := c.SelfMetrics()
	if received != 8 || missing != 0 || self.Counters[MetricTelemetryFramesLate] != 0 || self.Counters[MetricTelemetryRegressions] != 0 {
		t.Fatalf("received %d, missing %d, late %d, regressions %d; want 8, 0, 0, 0",
			received, missing, self.Counters[MetricTelemetryFramesLate], self.Counters[MetricTelemetryRegressions])
	}
}

func TestCollectorSpanRetention(t *testing.T) {
	clk := &testClock{}
	c := newTestCollector(clk)
	buf := trace.NewSpanBuffer(8)
	buf.RecordSpan(trace.Span{Node: 3, EventSeq: 1})
	buf.RecordSpan(trace.Span{Node: 3, EventSeq: 2})
	e := NewExporter(ExporterConfig{Node: 3, Spans: buf}, SinkFunc(c.Ingest))
	e.Flush(0, metrics.Snapshot{}, Beacon{})
	if got := len(c.Spans().Snapshot()); got != 2 {
		t.Fatalf("collector retained %d spans, want 2", got)
	}
	if v := c.SelfMetrics().Counters[MetricTelemetrySpansReceived]; v != 2 {
		t.Fatalf("%s=%d, want 2", MetricTelemetrySpansReceived, v)
	}
}

func TestCollectorHTTPEndpoints(t *testing.T) {
	clk := &testClock{}
	c := newTestCollector(clk)
	e := exporterTo(c, 7, "n7")
	reg := metrics.NewRegistry()
	reg.Counter("probe.sent").Add(11)
	reg.Gauge("window.size").Set(6)
	clk.now = 1 * des.Second
	e.Flush(clk.now, reg.Snapshot(), Beacon{Name: "n7", Level: 1, Window: 6})

	h := c.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	if !strings.Contains(body, "pw_probe_sent 11") {
		t.Fatalf("/metrics missing aggregated counter:\n%s", body)
	}
	if !strings.Contains(body, "pw_telemetry_frames_received 1") {
		t.Fatalf("/metrics missing collector self-instrument:\n%s", body)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/health", nil))
	var doc HealthDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/health not JSON: %v", err)
	}
	if len(doc.Nodes) != 1 || doc.Nodes[0].Name != "n7" {
		t.Fatalf("/health nodes: %+v", doc.Nodes)
	}
	if doc.Nodes[0].Health != 100 {
		t.Fatalf("fresh node health %v, want 100", doc.Nodes[0].Health)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/timeseries?node=n7&format=csv&fields=probe.sent,window.size", nil))
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if lines[0] != "seconds,level,window,probe.sent,window.size" {
		t.Fatalf("/timeseries csv header = %q", lines[0])
	}
	if len(lines) != 2 || !strings.HasSuffix(lines[1], ",11,6") {
		t.Fatalf("/timeseries csv row = %q", lines[1:])
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/timeseries?node=nope", nil))
	if rec.Code != 404 {
		t.Fatalf("unknown node: code %d, want 404", rec.Code)
	}
}

// TestCollectorTimeseriesCSVFields pins the /timeseries column syntax:
// counters (cumulative per sample), gauges and histogram percentiles in
// one header.
func TestCollectorTimeseriesCSVFields(t *testing.T) {
	clk := &testClock{}
	c := newTestCollector(clk)
	e := exporterTo(c, 7, "n7")
	reg := metrics.NewRegistry()
	rounds := reg.Counter("probe.rounds")
	reg.Gauge("peer.window_size").Set(30)
	lat := reg.Histogram("probe.detect_latency_seconds", []float64{1, 10, 60})
	for i := 1; i <= 2; i++ {
		rounds.Add(5)
		lat.Observe(float64(4 * i))
		clk.now = des.Time(i) * des.Second
		e.Flush(clk.now, reg.Snapshot(), Beacon{Name: "n7", Level: 1, Window: 30})
	}

	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/timeseries?node=n7&format=csv&fields="+
		"probe.rounds,peer.window_size,probe.detect_latency_seconds:p50,probe.detect_latency_seconds:p99", nil))
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	want := "seconds,level,window,probe.rounds,peer.window_size," +
		"probe.detect_latency_seconds:p50,probe.detect_latency_seconds:p99"
	if lines[0] != want {
		t.Fatalf("header = %q\n     want %q", lines[0], want)
	}
	if len(lines) != 3 {
		t.Fatalf("%d rows, want one per flush: %q", len(lines)-1, lines[1:])
	}
	for i, ln := range lines[1:] {
		cols := strings.Split(ln, ",")
		if len(cols) != 7 {
			t.Fatalf("row %q has %d columns, want 7", ln, len(cols))
		}
		if cols[3] != strconv.Itoa(5*(i+1)) || cols[4] != "30" {
			t.Fatalf("row %d: counter %q, gauge %q; want %d, 30", i, cols[3], cols[4], 5*(i+1))
		}
		p50, err1 := strconv.ParseFloat(cols[5], 64)
		p99, err2 := strconv.ParseFloat(cols[6], 64)
		if err1 != nil || err2 != nil || p50 <= 0 || p50 > p99 {
			t.Fatalf("percentile columns %q / %q invalid", cols[5], cols[6])
		}
	}
}

func TestSplitPercentile(t *testing.T) {
	cases := []struct {
		in   string
		name string
		q    float64
		ok   bool
	}{
		{"probe.detect_latency_seconds:p99", "probe.detect_latency_seconds", 0.99, true},
		{"a:p0", "a", 0, true},
		{"a:p100", "a", 1, true},
		{"a:p101", "", 0, false},
		{"a:pxx", "", 0, false},
		{"plain.counter", "", 0, false},
	}
	for _, tc := range cases {
		name, q, ok := splitPercentile(tc.in)
		if name != tc.name || q != tc.q || ok != tc.ok {
			t.Errorf("splitPercentile(%q) = %q, %v, %v; want %q, %v, %v", tc.in, name, q, ok, tc.name, tc.q, tc.ok)
		}
	}
}

func TestCollectorRejectsBadFrame(t *testing.T) {
	clk := &testClock{}
	c := newTestCollector(clk)
	if err := c.Ingest([]byte("not a frame")); err == nil {
		t.Fatalf("garbage accepted")
	}
	if v := c.SelfMetrics().Counters[MetricTelemetryFramesBad]; v != 1 {
		t.Fatalf("%s=%d, want 1", MetricTelemetryFramesBad, v)
	}
}

// TestCollectorRejectsBadMetricNames: the collector writes the names it
// decodes off the network into /metrics, so a frame is untrusted input.
// A counter named "x 1\npw_fake" would otherwise print a forged
// "# TYPE pw_x 1" line and a spoofed pw_fake sample.
func TestCollectorRejectsBadMetricNames(t *testing.T) {
	const bad = "x 1\npw_fake"
	deltas := []metrics.Snapshot{
		{Counters: map[string]uint64{"probe.rounds": 1, bad: 5}},
		{Gauges: map[string]int64{bad: 5}},
		{Histograms: map[string]metrics.HistSnapshot{
			bad: {Bounds: []float64{1}, Counts: []uint64{5, 0}, Count: 5, Sum: 5},
		}},
	}
	c := newTestCollector(&testClock{})
	for i, delta := range deltas {
		f := &Frame{Node: 1, Seq: uint64(i + 1), Beacon: &Beacon{Name: "n1"}, Delta: delta}
		b := f.Marshal()
		if _, err := Unmarshal(b); err == nil {
			t.Errorf("frame %d: Unmarshal accepted the name %q", i, bad)
		}
		if err := c.Ingest(b); err == nil {
			t.Errorf("frame %d: Ingest accepted the name %q", i, bad)
		}
	}
	if v := c.SelfMetrics().Counters[MetricTelemetryFramesBad]; v != uint64(len(deltas)) {
		t.Errorf("%s=%d, want %d", MetricTelemetryFramesBad, v, len(deltas))
	}
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if body := rec.Body.String(); strings.Contains(body, "fake") || strings.Contains(body, "probe_rounds") {
		t.Fatalf("/metrics carries a rejected frame:\n%s", body)
	}
}
