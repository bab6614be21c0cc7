package telemetry

import (
	"strings"
	"testing"

	"peerwindow/internal/des"
	"peerwindow/internal/metrics"
	"peerwindow/internal/wire"
)

// beaconAt pushes one beacon-only frame for node at collector time now.
func beaconAt(c *Collector, clk *testClock, node wire.Addr, seq uint64, now des.Time, delta metrics.Snapshot) {
	clk.now = now
	c.IngestFrame(&Frame{Node: node, Seq: seq, At: now, Delta: delta,
		Beacon: &Beacon{Name: "n", Level: 1, Window: 4}})
}

func healthOf(doc HealthDoc, addr uint64) NodeHealth {
	for _, n := range doc.Nodes {
		if n.Addr == addr {
			return n
		}
	}
	return NodeHealth{}
}

// TestHealthStaleWithinTwoBeaconIntervals is the acceptance property:
// a crashed node (no more frames) must be flagged before two beacon
// intervals have elapsed since its last frame.
func TestHealthStaleWithinTwoBeaconIntervals(t *testing.T) {
	clk := &testClock{}
	c := newTestCollector(clk) // BeaconInterval = 2 s → stale after 3.6 s
	beaconAt(c, clk, 1, 0, 1*des.Second, metrics.Snapshot{})

	clk.now = 1*des.Second + 2*des.Second - des.Millisecond // just under one interval
	n := healthOf(c.Health(), 1)
	if hasAlert(n, "stale") || hasAlert(n, "down") {
		t.Fatalf("fresh node flagged: %+v", n.Alerts)
	}

	clk.now = 1*des.Second + 4*des.Second // exactly two intervals after last frame
	n = healthOf(c.Health(), 1)
	if !hasAlert(n, "stale") {
		t.Fatalf("node not stale after 2 beacon intervals: alerts=%v score=%v", n.Alerts, n.Health)
	}
	if n.Health != 0 {
		t.Fatalf("stale node health %v, want 0", n.Health)
	}

	clk.now = 1*des.Second + 9*des.Second // past 4 intervals = 8 s
	n = healthOf(c.Health(), 1)
	if !hasAlert(n, "down") {
		t.Fatalf("node not down after 4 intervals: %v", n.Alerts)
	}
}

func hasAlert(n NodeHealth, a string) bool {
	for _, x := range n.Alerts {
		if x == a {
			return true
		}
	}
	return false
}

func TestHealthScoreDecaysWithStaleness(t *testing.T) {
	clk := &testClock{}
	c := newTestCollector(clk)
	beaconAt(c, clk, 1, 0, 0, metrics.Snapshot{})
	clk.now = 2800 * des.Millisecond // halfway between interval (2s) and stale (3.6s)
	n := healthOf(c.Health(), 1)
	if n.Health <= 0 || n.Health >= 100 {
		t.Fatalf("mid-decay health %v, want strictly between 0 and 100", n.Health)
	}
}

func TestHealthDetectLatencyBudget(t *testing.T) {
	clk := &testClock{}
	c := newTestCollector(clk)
	slow := metrics.Snapshot{Histograms: map[string]metrics.HistSnapshot{
		detectLatencyName: {
			Bounds: []float64{30, 60, 240},
			Counts: []uint64{0, 0, 100, 0},
			Count:  100, Sum: 24000, // p99 ≈ 238 s, 4× the 60 s budget
		},
	}}
	beaconAt(c, clk, 1, 0, 1*des.Second, slow)
	n := healthOf(c.Health(), 1)
	p99 := n.Scores[MetricHealthDetectP99Seconds]
	if p99 < 60 {
		t.Fatalf("p99 score %v, want > budget", p99)
	}
	if n.Health >= 50 {
		t.Fatalf("over-budget detect latency barely dents health: %v", n.Health)
	}
}

func TestHealthFrameLossAlert(t *testing.T) {
	clk := &testClock{}
	c := newTestCollector(clk)
	beaconAt(c, clk, 1, 0, 1*des.Second, metrics.Snapshot{})
	beaconAt(c, clk, 1, 9, 2*des.Second, metrics.Snapshot{}) // 8 frames lost
	n := healthOf(c.Health(), 1)
	if !hasAlert(n, "lossy") {
		t.Fatalf("80%% loss not flagged: %+v", n)
	}
	if n.FramesMissing != 8 {
		t.Fatalf("frames_missing=%d, want 8", n.FramesMissing)
	}
}

func TestHealthAsymmetryAlert(t *testing.T) {
	clk := &testClock{}
	c := newTestCollector(clk)
	oneway := metrics.Snapshot{Counters: map[string]uint64{
		"net.send_frames": 1000,
		"net.recv_frames": 10,
	}}
	beaconAt(c, clk, 1, 0, 1*des.Second, oneway)
	n := healthOf(c.Health(), 1)
	if !hasAlert(n, "asymmetric") {
		t.Fatalf("99%% one-way traffic not flagged: %+v", n.Scores)
	}
}

func TestHealthStallDetector(t *testing.T) {
	clk := &testClock{}
	c := newTestCollector(clk)
	// Active at first, then the counters freeze while beacons continue.
	beaconAt(c, clk, 1, 0, 0, metrics.Snapshot{Counters: map[string]uint64{"a": 5}})
	for i := 1; i <= 6; i++ {
		beaconAt(c, clk, 1, uint64(i), des.Time(i)*des.Second, metrics.Snapshot{})
	}
	n := healthOf(c.Health(), 1)
	if !hasAlert(n, "stalled") {
		t.Fatalf("frozen counters while beaconing not flagged: %+v", n)
	}
	if n.EventsPerSec != 0 {
		t.Fatalf("stalled node events/sec %v, want 0", n.EventsPerSec)
	}
}

func TestHealthFlapDetector(t *testing.T) {
	clk := &testClock{}
	c := newTestCollector(clk)
	for i := 0; i < 8; i++ { // level toggles every beacon
		clk.now = des.Time(i) * des.Second
		c.IngestFrame(&Frame{Node: 1, Seq: uint64(i), At: clk.now,
			Beacon: &Beacon{Level: i % 2, Window: 4}})
	}
	n := healthOf(c.Health(), 1)
	if !hasAlert(n, "flapping") {
		t.Fatalf("7 level changes in the window not flagged: %+v", n.Alerts)
	}
}

func TestHealthSummaryLines(t *testing.T) {
	clk := &testClock{}
	c := newTestCollector(clk)
	beaconAt(c, clk, 1, 0, 0, metrics.Snapshot{})
	clk.now = 10 * des.Second
	doc := c.Health()
	if len(doc.Alerts) == 0 {
		t.Fatalf("no cluster alert lines for a down node")
	}
	found := false
	for _, line := range doc.Alerts {
		if strings.HasPrefix(line, "down: ") {
			found = true
		}
	}
	if !found {
		t.Fatalf("alert lines missing down summary: %v", doc.Alerts)
	}
}
