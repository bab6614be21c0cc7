package transport

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"peerwindow/internal/core"
	"peerwindow/internal/des"
)

// Tests of what only the in-process Link does: identifier assignment,
// network-wide shutdown, loss injection and the per-type net.* counters.
// What every Host does over any Link is in conformance_test.go.

// testNetwork runs at 100× — fast enough for tests while keeping the
// virtual 3 s ack timeout at 30 ms of wall time, well clear of Go timer
// jitter (at higher dilation, false failure detections appear).
func testNetwork(seed uint64, lossRate float64) *Network {
	return NewNetwork(NetworkConfig{
		Core:     core.DefaultConfig(),
		Dilation: 100,
		LossRate: lossRate,
		Seed:     seed,
	})
}

// settle sleeps for the given virtual duration.
func settle(n *Network, d des.Time) {
	time.Sleep(n.toWall(d) + 10*time.Millisecond)
}

func TestCloseStopsAllAndSpawnAfterClosePanics(t *testing.T) {
	n := testNetwork(6, 0)
	a := n.Spawn("a", 1e9)
	a.Bootstrap()
	b := n.Spawn("b", 1e9)
	if err := b.Join(a.Self(), 5*time.Second); err != nil {
		t.Fatalf("join: %v", err)
	}
	a.Close()
	n.Close()
	n.Close()
	select {
	case <-b.done:
	default:
		t.Fatal("Network.Close left a host's executor running")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Spawn after Close did not panic")
		}
	}()
	n.Spawn("x", 0)
}

func TestDistinctIdentifiers(t *testing.T) {
	n := testNetwork(8, 0)
	defer n.Close()
	a := n.Spawn("same-name", 0)
	b := n.Spawn("same-name", 0)
	if a.Self().ID == b.Self().ID {
		t.Fatal("equal names must still get distinct identifiers")
	}
}

// TestNetworkMetricsUnderLoss checks the per-type net.* counters against
// each other under injected loss: every message offered is either
// dropped, delivered, or still in flight, and bits follow messages.
func TestNetworkMetricsUnderLoss(t *testing.T) {
	n := testNetwork(9, 0.05)
	defer n.Close()
	first := n.Spawn("host-0", 1e9)
	first.Bootstrap()
	for i := 1; i < 6; i++ {
		h := n.Spawn(fmt.Sprintf("host-%d", i), 1e9)
		if err := h.Join(first.Self(), 5*time.Second); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		settle(n, 20*des.Second)
	}
	settle(n, 2*des.Minute)

	m := n.Metrics()
	var sends, recvs, drops, sendBits, recvBits uint64
	for name, v := range m.Counters {
		switch {
		case strings.HasPrefix(name, "net.send_bits."):
			sendBits += v
		case strings.HasPrefix(name, "net.recv_bits."):
			recvBits += v
		case strings.HasPrefix(name, "net.send."):
			sends += v
		case strings.HasPrefix(name, "net.recv."):
			recvs += v
		case strings.HasPrefix(name, "net.drop."):
			drops += v
		}
	}
	if sends == 0 || sendBits == 0 {
		t.Fatal("no traffic recorded")
	}
	if drops == 0 {
		t.Fatal("loss injection recorded no drops")
	}
	// The snapshot reads counter by counter while messages are in flight.
	if diff := int64(sends) - int64(recvs+drops); diff < -5 || diff > 5 {
		t.Fatalf("net.send.* = %d, net.recv.* + net.drop.* = %d + %d", sends, recvs, drops)
	}
	if recvBits == 0 || recvBits > sendBits {
		t.Fatalf("net.recv_bits.* = %d, net.send_bits.* = %d", recvBits, sendBits)
	}
	if got := m.Gauges["net.hosts"]; got != 6 {
		t.Fatalf("net.hosts = %d, want 6", got)
	}
}
