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
// over the socket Link and over an in-memory test Link (memlink_test.go).
// The public in-process overlay runs its nodes inside the simulator
// instead, and package peerwindow tests the same behaviours there. A case
// gets a spawn function that starts one more host; hosts are closed when
// the case ends.

type spawnFunc func(name string) *transport.Host

// realTimeConfig scales the protocol constants down for links that run
// in real time.
func realTimeConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.ProbeInterval = 400 * des.Millisecond
	cfg.ProbeTimeout = 120 * des.Millisecond
	cfg.AckTimeout = 120 * des.Millisecond
	cfg.ForwardDelay = 10 * des.Millisecond
	cfg.ShiftCheckInterval = 1 * des.Second
	cfg.MeterWindow = 2 * des.Second
	cfg.RefreshEnabled = false
	cfg.ReconcileDelay = 500 * des.Millisecond
	return cfg
}

// udpSpawner starts hosts on loopback sockets.
func udpSpawner(t *testing.T) spawnFunc {
	cfg := realTimeConfig()
	return func(name string) *transport.Host {
		h, err := udptransport.Listen("127.0.0.1:0", name, 1e9, cfg)
		if err != nil {
			t.Fatalf("listen %s: %v", name, err)
		}
		t.Cleanup(h.Close)
		return h
	}
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

// links are the substrates under test.
var links = []struct {
	name string
	open func(t *testing.T) spawnFunc
}{
	{"network", memSpawner},
	{"udp", udpSpawner},
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

// TestDistinctIdentifiers: equal names still get distinct identifiers,
// because the name is hashed with the host's endpoint.
func TestDistinctIdentifiers(t *testing.T) {
	spawn := udpSpawner(t)
	if a, b := spawn("same-name"), spawn("same-name"); a.Self().ID == b.Self().ID {
		t.Fatal("equal names must still get distinct identifiers")
	}
}

// eventually polls cond until it holds; the deadline is far beyond any
// protocol timer, so hitting it is a failure, not jitter.
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
			return h.Query().View().Len() == len(hosts)-1
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

// testCancelledTimerNeverRuns pins the timer guard: B comes due while
// the test holds the host's lock, so the wall timer fires with B's run
// still pending; B is then cancelled, and it must not run. Timers are
// core.Env calls, so the test arms and cancels them under the lock, in
// one critical section: B cannot run between the two, however late the
// test gets the CPU back.
func testCancelledTimerNeverRuns(t *testing.T, spawn spawnFunc) {
	h := spawn("solo")
	h.Bootstrap()
	var ran atomic.Bool
	var cancelled bool
	h.Call(func() {
		b := h.SetTimer(des.Millisecond, func() { ran.Store(true) })
		// No event marks "fired and pending"; 100 ms is 100 timer periods,
		// and sleeping too little could only make the test pass.
		time.Sleep(100 * time.Millisecond)
		cancelled = b.Cancel()
	})
	if !cancelled {
		t.Fatal("Cancel() = false for a timer whose callback has not run")
	}
	// Timers run in deadline order, so once a later one has run, B's turn
	// has passed.
	later := make(chan struct{})
	h.Call(func() { h.SetTimer(0, func() { close(later) }) })
	<-later
	if ran.Load() {
		t.Fatal("cancelled timer ran")
	}
}

func testEnableIdempotent(t *testing.T, spawn spawnFunc) {
	h := spawn("solo")
	if a, b := h.EnableSpans(64), h.EnableSpans(4096); a == nil || a != b {
		t.Fatalf("second EnableSpans returned %p, first %p", b, a)
	}
}
