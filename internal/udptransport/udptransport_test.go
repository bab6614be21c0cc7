package udptransport

import (
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"peerwindow/internal/core"
	"peerwindow/internal/des"
	"peerwindow/internal/metrics"
	"peerwindow/internal/nodeid"
	"peerwindow/internal/trace"
	"peerwindow/internal/transport"
	"peerwindow/internal/wire"
)

// Tests of what only the socket Link does: the TCP sidecar and its
// bounds. What every Host does over any Link is in
// internal/transport/conformance_test.go.

// fastConfig scales the paper's constants down so loopback tests finish
// in seconds while keeping every ratio intact.
func fastConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.ProbeInterval = 400 * des.Millisecond
	cfg.ProbeTimeout = 120 * des.Millisecond
	cfg.AckTimeout = 120 * des.Millisecond
	cfg.ForwardDelay = 10 * des.Millisecond
	cfg.RefreshEnabled = false
	return cfg
}

func listen(t *testing.T, name string) *transport.Host {
	t.Helper()
	h, err := Listen("127.0.0.1:0", name, 0, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	h.Bootstrap()
	return h
}

// sidecar dials h's TCP sidecar.
func sidecar(t *testing.T, h *transport.Host) net.Conn {
	t.Helper()
	ip, port := h.Self().Addr.IPv4()
	c, err := net.DialTCP("tcp4", nil, &net.TCPAddr{IP: ip[:], Port: int(port)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// eventually polls cond for up to five seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting until %s", what)
}

func TestBulkResponsesUseTCPSidecar(t *testing.T) {
	a, b := listen(t, "bulk-a"), listen(t, "bulk-b")

	// A response far beyond one datagram.
	ptrs := make([]wire.Pointer, 3*maxPointersPerDatagram)
	for i := range ptrs {
		ptrs[i] = wire.Pointer{
			Addr: wire.Addr(i + 1),
			ID:   nodeid.Hash([]byte(fmt.Sprintf("bulk-%d", i))),
		}
	}
	a.Send(wire.Message{
		Type: wire.MsgTopListResp, From: a.Self().Addr, To: b.Self().Addr,
		AckID: 99, Pointers: ptrs,
	})
	eventually(t, "the transfer arrives whole over TCP", func() bool {
		_, received := b.Counters()
		return received == 1 && a.MetricsSnapshot().Gauges[metrics.MetricNetBulkSends] == 1
	})
	if got := b.MetricsSnapshot().Counters[metrics.MetricNetBulkRejected]; got != 0 {
		t.Fatalf("%s = %d after a good transfer", metrics.MetricNetBulkRejected, got)
	}
}

// TestBulkHeaderAllocatesNothingUpFront: a header claiming the maximum
// size, then silence, must not make the receiver allocate the claim; the
// short transfer is counted once the sender gives up.
func TestBulkHeaderAllocatesNothingUpFront(t *testing.T) {
	h := listen(t, "victim")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := sidecar(t, h)
	if _, err := c.Write([]byte{0x04, 0, 0, 0}); err != nil { // 64 MiB
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond) // let the receiver read the header and wait for more
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("receiver allocated %d bytes for a 4-byte header", grew)
	}
	c.Close()
	eventually(t, "the short transfer is counted", func() bool {
		return h.MetricsSnapshot().Counters[metrics.MetricNetBulkRejected] == 1
	})
}

// TestCloseWaitsForBulkConnections opens more sidecar connections than
// the cap and leaves them idle: the excess is refused and counted, and
// Close tears the rest down instead of leaking their goroutines.
func TestCloseWaitsForBulkConnections(t *testing.T) {
	base := runtime.NumGoroutine()
	h := listen(t, "busy")
	const extra = 3
	for i := 0; i < maxBulkConns+extra; i++ {
		sidecar(t, h)
	}
	eventually(t, "connections over the cap are refused", func() bool {
		return h.MetricsSnapshot().Counters[metrics.MetricNetBulkRejected] == extra
	})
	if got := runtime.NumGoroutine(); got < base+maxBulkConns {
		t.Fatalf("%d goroutines with %d transfers open (baseline %d)", got, maxBulkConns, base)
	}
	h.Close()
	// Close has waited for the link's goroutines; the runtime may still
	// be retiring the ones that closed the connections for it.
	eventually(t, "the goroutine count returns to baseline", func() bool {
		return runtime.NumGoroutine() <= base
	})
}

// TestSendErrorsAreCounted: a datagram the kernel refuses and a bulk
// transfer nobody accepts both show up in net.send_errors.
func TestSendErrorsAreCounted(t *testing.T) {
	h := listen(t, "sender")
	self := h.Self().Addr
	// Port 0 is not a destination: WriteToUDP fails synchronously.
	h.Send(wire.Message{Type: wire.MsgAck, From: self, To: wire.AddrFromIPv4([4]byte{127, 0, 0, 1}, 0)})
	// A bulk transfer to a port with no listener: the dial is refused.
	dead := listen(t, "dead")
	to := dead.Self().Addr
	dead.Close()
	h.Send(wire.Message{
		Type: wire.MsgTopListResp, From: self, To: to,
		Pointers: make([]wire.Pointer, maxPointersPerDatagram+1),
	})
	eventually(t, "both failures are counted", func() bool {
		return h.MetricsSnapshot().Counters[metrics.MetricNetSendErrors] == 2
	})
}

// TestAckDatagramsDoNotAllocate: receiving a datagram costs the reader no
// allocation, not even for the sender's address, and an ack then
// unmarshals and resolves under the host's lock without allocating either.
func TestAckDatagramsDoNotAllocate(t *testing.T) {
	h := listen(t, "acks")
	ip, port := h.Self().Addr.IPv4()
	c, err := net.DialUDP("udp4", nil, &net.UDPAddr{IP: ip[:], Port: int(port)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ack := wire.Message{Type: wire.MsgAck, From: h.Self().Addr, To: h.Self().Addr, AckID: 1}.Marshal()
	deadline := time.Now().Add(10 * time.Second)
	// send writes n acks one at a time, each once the previous one has
	// been read, so the socket buffer never overflows.
	send := func(n int) {
		for i := 0; i < n; i++ {
			_, before := h.Counters()
			if _, err := c.Write(ack); err != nil {
				t.Fatal(err)
			}
			for _, got := h.Counters(); got == before; _, got = h.Counters() {
				if time.Now().After(deadline) {
					t.Fatalf("ack %d never arrived", i)
				}
				runtime.Gosched()
			}
		}
	}
	send(50) // warm the receive path
	const n = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	send(n)
	h.Level() // returns once the host has handled every ack
	runtime.ReadMemStats(&after)
	if m := after.Mallocs - before.Mallocs; m > n/10 {
		t.Fatalf("%d allocations for %d ack datagrams", m, n)
	}
}

// TestOutOfRangeDatagramLeavesHostServing: the 42-byte top-list request
// whose prefix length is 200, one above what any eigenstring has, is
// counted as garbage, and the host still answers a peer-list request.
func TestOutOfRangeDatagramLeavesHostServing(t *testing.T) {
	h := listen(t, "target")
	c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	local := c.LocalAddr().(*net.UDPAddr)
	from := wire.AddrFromIPv4([4]byte(local.IP.To4()), uint16(local.Port))
	ip, port := h.Self().Addr.IPv4()
	to := &net.UDPAddr{IP: ip[:], Port: int(port)}
	send := func(m wire.Message) []byte {
		t.Helper()
		m.From, m.To = from, h.Self().Addr
		b := m.Marshal()
		if _, err := c.WriteToUDP(b, to); err != nil {
			t.Fatal(err)
		}
		return b
	}

	if b := send(wire.Message{Type: wire.MsgTopListReq, AckID: 1, PartBits: 200}); len(b) != 42 {
		t.Fatalf("the top-list request is %d bytes, want 42", len(b))
	}
	eventually(t, "the datagram is counted as garbage", func() bool {
		return h.MetricsSnapshot().Counters[metrics.MetricNetGarbage] == 1
	})
	send(wire.Message{Type: wire.MsgPeerListReq, AckID: 2,
		Sender: wire.Pointer{Addr: from, ID: nodeid.Hash([]byte("asker"))}})
	if err := c.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64<<10)
	for {
		n, _, err := c.ReadFromUDP(buf)
		if err != nil {
			t.Fatalf("no peer-list answer: %v", err)
		}
		if m, err := wire.Unmarshal(buf[:n]); err == nil && m.Type == wire.MsgPeerListResp && m.AckID == 2 {
			return
		}
	}
}

// TestClosedHostIsCollected: once Close returns, nothing the node armed
// keeps a joined host reachable. Node.Stop cancels every timer it set —
// the periodic ones, the reconcile and warm-up timers and the deadline
// queues' — so the runtime's timers let go of the callbacks that point
// back at the host, and a few GC cycles collect it. A finalizer cannot
// watch the host itself (its node's Env points back at it, and a
// finalizer on a cycle never runs), so it watches the host's span
// buffer, which only the host and its node reference.
func TestClosedHostIsCollected(t *testing.T) {
	seed := listen(t, "gc-seed")
	collected := make(chan struct{})
	func() {
		h, err := Listen("127.0.0.1:0", "gc-joiner", 0, fastConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		runtime.SetFinalizer(h.EnableSpans(16), func(*trace.SpanBuffer) { close(collected) })
		if err := h.Join(seed.Self(), 5*time.Second); err != nil {
			t.Fatal(err)
		}
		// An announcement: a report, the seed's forward to us, our ack.
		h.SetInfo([]byte("gc=1"))
		self := h.Self().ID
		eventually(t, "the seed applies the announcement", func() bool {
			e, ok := seed.Query().View().Get(self)
			return ok && e.Info() == "gc=1"
		})
	}()
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatal("a closed host is still reachable after 10 GC cycles")
}
