package transport_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"peerwindow/internal/core"
	"peerwindow/internal/des"
	"peerwindow/internal/metrics"
	"peerwindow/internal/nodeid"
	"peerwindow/internal/transport"
	"peerwindow/internal/wire"
	"peerwindow/internal/xrand"
)

// memNet is a test-only in-memory substrate: hosts exchange messages
// through memory after a fixed wall-clock latency, on one shared clock.
// It lets the conformance suite check a Host over a second Link with no
// sockets underneath.
type memNet struct {
	start   time.Time
	latency time.Duration
	rng     *xrand.Source

	mu    sync.Mutex
	hosts map[wire.Addr]*transport.Host
	next  wire.Addr
}

func newMemNet(seed uint64) *memNet {
	return &memNet{
		start:   time.Now(),
		latency: 2 * time.Millisecond,
		rng:     xrand.New(seed),
		hosts:   make(map[wire.Addr]*transport.Host),
	}
}

// spawn starts one host on the net. Equal names stay distinct because
// the name is hashed with the host's address.
func (n *memNet) spawn(name string, cfg core.Config) *transport.Host {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.next++
	l := &memLink{net: n, addr: n.next}
	self := wire.Pointer{Addr: l.addr, ID: nodeid.Hash([]byte(fmt.Sprintf("%s/%d", name, l.addr)))}
	h := transport.NewHost(cfg, self, n.rng.Split(uint64(l.addr)), l)
	n.hosts[l.addr] = h
	return h
}

// memLink is one host's attachment to a memNet.
type memLink struct {
	net  *memNet
	addr wire.Addr
	// inflight counts deliveries this link has started, so Close can
	// wait for them.
	inflight sync.WaitGroup
}

func (l *memLink) Now() des.Time             { return des.Time(time.Since(l.net.start)) }
func (l *memLink) Metrics() metrics.Snapshot { return metrics.Snapshot{} }

// Send delivers msg after the net's latency; a message to an address
// with no live host vanishes.
func (l *memLink) Send(msg wire.Message) {
	l.net.mu.Lock()
	to := l.net.hosts[msg.To]
	l.net.mu.Unlock()
	if to == nil {
		return
	}
	l.inflight.Add(1)
	time.AfterFunc(l.net.latency, func() {
		defer l.inflight.Done()
		to.Deliver(msg)
	})
}

// Close detaches the host, so later sends to it vanish, and waits for
// the deliveries it started. The host calls it after its node has
// stopped, so no Send races the wait.
func (l *memLink) Close() {
	l.net.mu.Lock()
	delete(l.net.hosts, l.addr)
	l.net.mu.Unlock()
	l.inflight.Wait()
}

// memSpawner starts hosts on a fresh memNet with the scaled-down
// real-time constants the UDP case uses.
func memSpawner(t *testing.T) spawnFunc {
	n := newMemNet(1)
	cfg := realTimeConfig()
	return func(name string) *transport.Host {
		h := n.spawn(name, cfg)
		t.Cleanup(h.Close)
		return h
	}
}
