package main

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"peerwindow/internal/des"
	"peerwindow/internal/telemetry"
	"peerwindow/internal/udptransport"
)

// collectUDP runs a pwcollect-style ingest loop on an ephemeral port.
func collectUDP(t *testing.T) (*telemetry.Collector, string, func()) {
	t.Helper()
	start := time.Now()
	c := telemetry.NewCollector(telemetry.CollectorConfig{
		Clock:          func() des.Time { return des.Time(time.Since(start)) },
		BeaconInterval: des.Time(200 * time.Millisecond),
	})
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		buf := make([]byte, 65536)
		for {
			n, _, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			c.Ingest(buf[:n])
		}
	}()
	return c, conn.LocalAddr().String(), func() { conn.Close() }
}

// TestTelemetryPushOverUDP is the live-path smoke: a real node pushes
// frames through the udpSink at a real collector ingest loop, and the
// collector's totals and health reflect the node within a deadline.
func TestTelemetryPushOverUDP(t *testing.T) {
	c, addr, closeUDP := collectUDP(t)
	defer closeUDP()

	node, err := udptransport.Listen("127.0.0.1:0", "seed", 0, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	node.Bootstrap()

	stop, done, err := startTelemetry(addr, 100*time.Millisecond, "seed", node)
	if err != nil {
		t.Fatal(err)
	}

	// A solo bootstrapped node increments few counters, so wait on frame
	// arrival (two, so a beacon gap is measurable), not on counter totals.
	deadline := time.Now().Add(5 * time.Second)
	var seen bool
	for time.Now().Before(deadline) {
		if received, _, _, _, ok := c.NodeStats(node.Self().Addr); ok && received >= 2 {
			seen = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !seen {
		t.Fatalf("collector never saw two frames from the node")
	}

	doc := c.Health()
	if len(doc.Nodes) != 1 || doc.Nodes[0].Name != "seed" {
		t.Fatalf("health doc: %+v", doc.Nodes)
	}

	// Stop triggers a final flush; totals then match the node's own
	// snapshot exactly (counters are exact over the delta protocol).
	close(stop)
	<-done
	want := node.MetricsSnapshot()
	got, _ := c.NodeTotals(node.Self().Addr)
	for name, w := range want.Counters {
		if got.Counters[name] != w {
			t.Fatalf("counter %s: collector %d, node %d", name, got.Counters[name], w)
		}
	}
}

// TestDebugServerPprof: the profiler index and a heap profile are
// served from the -debug-addr mux.
func TestDebugServerPprof(t *testing.T) {
	node, err := udptransport.Listen("127.0.0.1:0", "seed", 0, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	ln, err := startDebugServer("127.0.0.1:0", "seed", node)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	base := fmt.Sprintf("http://%s", ln.Addr())
	index := httpGet(t, base+"/debug/pprof/")
	if !strings.Contains(index, "heap") || !strings.Contains(index, "goroutine") {
		t.Fatalf("pprof index missing profiles:\n%.400s", index)
	}
	heap := httpGet(t, base+"/debug/pprof/heap?debug=1")
	if !strings.Contains(heap, "heap profile") {
		t.Fatalf("heap profile malformed:\n%.200s", heap)
	}
}
