package transport_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"peerwindow/internal/core"
	"peerwindow/internal/des"
	"peerwindow/internal/nodeid"
	"peerwindow/internal/transport"
	"peerwindow/internal/udptransport"
)

// The conformance suite: every behaviour a Host promises, run unchanged
// over both Links. A case gets a spawn function that starts one more
// host on the link under test; hosts are closed when the case ends.

type spawnFunc func(name string) *transport.Host

// links are the substrates under test. The in-process network runs the
// paper's constants on a 100× dilated clock (a virtual 3 s ack timeout is
// 30 ms of wall time, clear of Go timer jitter); the UDP link runs in
// real time, so it scales the constants down instead.
var links = []struct {
	name string
	open func(t *testing.T) spawnFunc
}{
	{"network", func(t *testing.T) spawnFunc {
		n := transport.NewNetwork(transport.NetworkConfig{
			Core: core.DefaultConfig(), Dilation: 100, Seed: 1,
		})
		t.Cleanup(n.Close)
		return func(name string) *transport.Host { return n.Spawn(name, 1e9) }
	}},
	{"udp", func(t *testing.T) spawnFunc {
		cfg := core.DefaultConfig()
		cfg.ProbeInterval = 400 * des.Millisecond
		cfg.ProbeTimeout = 120 * des.Millisecond
		cfg.AckTimeout = 120 * des.Millisecond
		cfg.ForwardDelay = 10 * des.Millisecond
		cfg.ShiftCheckInterval = 1 * des.Second
		cfg.MeterWindow = 2 * des.Second
		cfg.RefreshEnabled = false
		cfg.ReconcileDelay = 500 * des.Millisecond
		return func(name string) *transport.Host {
			h, err := udptransport.Listen("127.0.0.1:0", name, 1e9, cfg)
			if err != nil {
				t.Fatalf("listen %s: %v", name, err)
			}
			t.Cleanup(h.Close)
			return h
		}
	}},
}

var cases = []struct {
	name string
	run  func(t *testing.T, spawn spawnFunc)
}{
	{"Converges", testConverges},
	{"InfoChangePropagates", testInfoChangePropagates},
	{"LeavePropagates", testLeavePropagates},
	{"CrashDetected", testCrashDetected},
	{"JoinDeadBootstrapFails", testJoinDeadBootstrapFails},
	{"CloseIdempotent", testCloseIdempotent},
	{"CancelledTimerNeverRuns", testCancelledTimerNeverRuns},
	{"EnableIdempotent", testEnableIdempotent},
}

func TestConformance(t *testing.T) {
	for _, l := range links {
		t.Run(l.name, func(t *testing.T) {
			for _, c := range cases {
				t.Run(c.name, func(t *testing.T) {
					t.Parallel()
					c.run(t, l.open(t))
				})
			}
		})
	}
}

// eventually polls cond until it holds; the deadline is far beyond any
// protocol timer on either link, so hitting it is a failure, not jitter.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline); {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting until %s", what)
}

// holds reports whether h's window contains id.
func holds(h *transport.Host, id nodeid.ID) bool {
	_, ok := h.Query().View().Get(id)
	return ok
}

// build starts count hosts, each joined through an earlier one and seen
// by every earlier host before the next starts.
func build(t *testing.T, spawn spawnFunc, count int) []*transport.Host {
	t.Helper()
	hosts := []*transport.Host{spawn("host-0")}
	hosts[0].Bootstrap()
	for i := 1; i < count; i++ {
		h := spawn(fmt.Sprintf("host-%d", i))
		if err := h.Join(hosts[i/2].Self(), 10*time.Second); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		id := h.Self().ID
		for j, old := range hosts {
			eventually(t, fmt.Sprintf("host %d sees joiner %d", j, i), func() bool { return holds(old, id) })
		}
		hosts = append(hosts, h)
	}
	return hosts
}

func testConverges(t *testing.T, spawn spawnFunc) {
	hosts := build(t, spawn, 8)
	for i, h := range hosts {
		eventually(t, fmt.Sprintf("host %d holds every other host", i), func() bool {
			return len(h.Pointers()) == len(hosts)-1
		})
	}
	if sent, received := hosts[0].Counters(); sent == 0 || received == 0 {
		t.Fatalf("Counters() = %d, %d: no traffic counted", sent, received)
	}
	s := hosts[0].MetricsSnapshot()
	if got := s.Gauges[core.MetricGaugeWindowSize]; got != int64(len(hosts)-1) {
		t.Fatalf("%s = %d, want %d", core.MetricGaugeWindowSize, got, len(hosts)-1)
	}
}

func testInfoChangePropagates(t *testing.T, spawn spawnFunc) {
	hosts := build(t, spawn, 6)
	hosts[3].SetInfo([]byte("os=plan9"))
	subject := hosts[3].Self().ID
	for i, h := range hosts {
		if i == 3 {
			continue
		}
		eventually(t, fmt.Sprintf("host %d learns the info change", i), func() bool {
			e, ok := h.Query().View().Get(subject)
			return ok && e.Info() == "os=plan9"
		})
	}
}

func testLeavePropagates(t *testing.T, spawn spawnFunc) {
	hosts := build(t, spawn, 6)
	leaver := hosts[4].Self().ID
	hosts[4].Leave()
	for i, h := range hosts {
		if i == 4 {
			continue
		}
		eventually(t, fmt.Sprintf("host %d drops the departed node", i), func() bool { return !holds(h, leaver) })
	}
}

func testCrashDetected(t *testing.T, spawn spawnFunc) {
	hosts := build(t, spawn, 6)
	victim := hosts[2].Self().ID
	hosts[2].Close() // silent: only ring probing can notice
	for i, h := range hosts {
		if i == 2 {
			continue
		}
		eventually(t, fmt.Sprintf("host %d drops the crashed node", i), func() bool { return !holds(h, victim) })
	}
}

func testJoinDeadBootstrapFails(t *testing.T, spawn spawnFunc) {
	a := spawn("a")
	a.Bootstrap()
	dead := a.Self()
	a.Close()
	if err := spawn("b").Join(dead, 10*time.Second); err == nil {
		t.Fatal("join through a dead bootstrap succeeded")
	}
}

func testCloseIdempotent(t *testing.T, spawn spawnFunc) {
	a := spawn("a")
	a.Bootstrap()
	b := spawn("b")
	if err := b.Join(a.Self(), 10*time.Second); err != nil {
		t.Fatalf("join: %v", err)
	}
	a.Close()
	a.Close()
	b.Leave()
	b.Close()
	// The façade stays callable on a closed host.
	if got := a.Level(); got != 0 {
		t.Fatalf("Level() on a closed host = %d", got)
	}
}

// testCancelledTimerNeverRuns pins the timer guard: the wall timer of B
// fires and queues its callback while the executor is busy, B is then
// cancelled, and the queued callback must not run.
func testCancelledTimerNeverRuns(t *testing.T, spawn spawnFunc) {
	h := spawn("solo")
	h.Bootstrap()
	busy, release := make(chan struct{}), make(chan struct{})
	h.SetTimer(0, func() {
		close(busy)
		<-release
	})
	<-busy
	var ran atomic.Bool
	b := h.SetTimer(des.Millisecond, func() { ran.Store(true) })
	// No event marks "fired and queued"; 100 ms is 100 timer periods even
	// undilated, and sleeping too little could only make the test pass.
	time.Sleep(100 * time.Millisecond)
	if !b.Cancel() {
		t.Fatal("Cancel() = false for a timer whose callback has not run")
	}
	close(release)
	h.Level() // the executor is FIFO: B's queued callback is behind us now
	if ran.Load() {
		t.Fatal("cancelled timer ran")
	}
}

func testEnableIdempotent(t *testing.T, spawn spawnFunc) {
	h := spawn("solo")
	if a, b := h.EnableSpans(64), h.EnableSpans(4096); a == nil || a != b {
		t.Fatalf("second EnableSpans returned %p, first %p", b, a)
	}
	if a, b := h.EnableTrace(64), h.EnableTrace(4096); a == nil || a != b {
		t.Fatalf("second EnableTrace returned %p, first %p", b, a)
	}
}
