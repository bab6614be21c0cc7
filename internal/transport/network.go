package transport

import (
	"fmt"
	"sync"
	"time"

	"peerwindow/internal/core"
	"peerwindow/internal/des"
	"peerwindow/internal/metrics"
	"peerwindow/internal/nodeid"
	"peerwindow/internal/topology"
	"peerwindow/internal/trace"
	"peerwindow/internal/wire"
	"peerwindow/internal/xrand"
)

// typeCounters is one instrument set per message type: send/recv/drop
// counts plus sent/received bytes, indexed by wire.MsgType for lock-free
// hot-path access.
type typeCounters struct {
	send, recv, drop   [wire.MsgTopListResp + 1]*metrics.Counter
	sendBits, recvBits [wire.MsgTopListResp + 1]*metrics.Counter
}

// newTypeCounters registers the per-type instruments in reg under
// net.<verb>.<type> names.
func newTypeCounters(reg *metrics.Registry) typeCounters {
	var tc typeCounters
	for t := wire.MsgEvent; t <= wire.MsgTopListResp; t++ {
		name := t.String()
		tc.send[t] = reg.Counter(metrics.MetricNetSendPrefix + name)
		tc.recv[t] = reg.Counter(metrics.MetricNetRecvPrefix + name)
		tc.drop[t] = reg.Counter(metrics.MetricNetDropPrefix + name)
		tc.sendBits[t] = reg.Counter(metrics.MetricNetSendBitsPrefix + name)
		tc.recvBits[t] = reg.Counter(metrics.MetricNetRecvBitsPrefix + name)
	}
	return tc
}

// NetworkConfig configures the in-process network.
type NetworkConfig struct {
	// Core is the protocol configuration shared by spawned hosts;
	// thresholds are set per host.
	Core core.Config
	// Topology supplies latencies; nil means ConstLatency.
	Topology *topology.Network
	// ConstLatency is the flat virtual one-way latency when Topology is
	// nil (default 50 ms).
	ConstLatency des.Time
	// Dilation compresses time: virtual seconds per wall second
	// (default 1 = real time; 60 = a virtual minute per second). Protocol
	// constants are expressed in virtual time (30 s probe intervals, 1 s
	// forwarding delays), so demos in real time would be glacial.
	Dilation float64
	// LossRate drops each message with this probability.
	LossRate float64
	// Seed drives identifier assignment and per-host randomness.
	Seed uint64
	// Trace, when non-nil, records message flow (sends, drops,
	// deliveries) and every host's protocol events for post-mortem
	// inspection.
	Trace *trace.Ring
}

// Network is the in-process Link: hosts exchange messages through memory
// with injected latency and loss, on a dilated clock. It is safe for
// concurrent use.
type Network struct {
	cfg   NetworkConfig
	start time.Time

	mu       sync.Mutex
	ports    map[wire.Addr]*port
	nextAddr wire.Addr
	rng      *xrand.Source
	lossRng  *xrand.Source
	closed   bool

	// reg holds the per-message-type network instruments; tc caches the
	// counter pointers for the delivery hot path.
	reg *metrics.Registry
	tc  typeCounters
}

// NewNetwork builds an empty network.
func NewNetwork(cfg NetworkConfig) *Network {
	if cfg.ConstLatency <= 0 {
		cfg.ConstLatency = 50 * des.Millisecond
	}
	if cfg.Dilation <= 0 {
		cfg.Dilation = 1
	}
	if err := cfg.Core.Validate(); err != nil {
		panic(err)
	}
	root := xrand.New(cfg.Seed)
	reg := metrics.NewRegistry()
	return &Network{
		cfg:     cfg,
		start:   time.Now(),
		ports:   make(map[wire.Addr]*port),
		rng:     root.Split(1),
		lossRng: root.Split(2),
		reg:     reg,
		tc:      newTypeCounters(reg),
	}
}

// Metrics snapshots the network-level instruments: per-message-type
// send/recv/drop counts and bits, plus the live-host gauge.
func (n *Network) Metrics() metrics.Snapshot {
	n.mu.Lock()
	hosts := len(n.ports)
	n.mu.Unlock()
	n.reg.Gauge(metrics.MetricNetHosts).Set(int64(hosts))
	return n.reg.Snapshot()
}

// now returns the current virtual time.
func (n *Network) now() des.Time {
	return des.Time(float64(time.Since(n.start)) * n.cfg.Dilation)
}

// toWall converts a virtual duration to a wall duration.
func (n *Network) toWall(d des.Time) time.Duration {
	return time.Duration(float64(d) / n.cfg.Dilation)
}

// Close stops every host. The network cannot be reused.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	hosts := make([]*Host, 0, len(n.ports))
	for _, p := range n.ports {
		hosts = append(hosts, p.host)
	}
	n.mu.Unlock()
	for _, h := range hosts {
		h.Close()
	}
}

// Spawn creates a host attached to the network. name seeds the node
// identifier (consistent hashing, §2); threshold is the node's bandwidth
// budget in bit/s (0 keeps the configured default).
func (n *Network) Spawn(name string, threshold float64) *Host {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		panic("transport: Spawn on closed network")
	}
	n.nextAddr++
	p := &port{net: n, addr: n.nextAddr}
	if n.cfg.Topology != nil {
		p.attach = n.cfg.Topology.RandomAttachment(n.rng)
	}
	coreCfg := n.cfg.Core
	if threshold > 0 {
		coreCfg.ThresholdBits = threshold
	}
	self := wire.Pointer{
		Addr: p.addr,
		// Consistent hashing of the name (public-key stand-in), salted
		// with the address so equal names stay distinct (§2).
		ID: nodeid.Hash([]byte(fmt.Sprintf("%s/%d", name, p.addr))),
	}
	p.host = NewHost(coreCfg, self, n.rng.Split(uint64(p.addr)), p)
	if n.cfg.Trace != nil {
		// Protocol-level events interleave with message flow in the ring.
		// Nothing can reach the host before mu is released, so its idle
		// executor is not a second writer.
		p.host.ring = n.cfg.Trace
		p.host.node.SetTrace(n.cfg.Trace)
	}
	n.ports[p.addr] = p
	return p.host
}

// port is one host's attachment to the network — the Link the host
// holds. Clock and dilation are the network's.
type port struct {
	net    *Network
	addr   wire.Addr
	attach topology.Attachment
	host   *Host
}

func (p *port) Now() des.Time                 { return p.net.now() }
func (p *port) Wall(d des.Time) time.Duration { return p.net.toWall(d) }
func (p *port) Send(msg wire.Message)         { p.net.deliver(p, msg) }

// Metrics implements Link. The net.* instruments are network-wide (see
// Network.Metrics), so a single host has none of its own.
func (p *port) Metrics() metrics.Snapshot { return metrics.Snapshot{} }

// Close implements Link: later sends to this address vanish.
func (p *port) Close() {
	p.net.mu.Lock()
	delete(p.net.ports, p.addr)
	p.net.mu.Unlock()
}

// deliver routes a message asynchronously with latency and loss.
func (n *Network) deliver(from *port, msg wire.Message) {
	var bits uint64 // sized once per hop, charged to both ends
	if msg.Type.Valid() {
		bits = uint64(msg.SizeBits())
		n.tc.send[msg.Type].Inc()
		n.tc.sendBits[msg.Type].Add(bits)
	}
	if n.cfg.Trace != nil {
		n.cfg.Trace.Record(n.now(), uint64(msg.From), "send",
			fmt.Sprintf("%v to=%d", msg.Type, msg.To))
	}
	n.mu.Lock()
	drop := n.cfg.LossRate > 0 && n.lossRng.Float64() < n.cfg.LossRate
	to := n.ports[msg.To]
	n.mu.Unlock()
	if drop {
		if msg.Type.Valid() {
			n.tc.drop[msg.Type].Inc()
		}
		if n.cfg.Trace != nil {
			n.cfg.Trace.Record(n.now(), uint64(msg.From), "drop",
				fmt.Sprintf("%v to=%d", msg.Type, msg.To))
		}
		return
	}
	if to == nil {
		return
	}
	lat := n.cfg.ConstLatency
	if n.cfg.Topology != nil {
		lat = n.cfg.Topology.Latency(from.attach, to.attach)
	}
	time.AfterFunc(n.toWall(lat), func() {
		if msg.Type.Valid() {
			n.tc.recv[msg.Type].Inc()
			n.tc.recvBits[msg.Type].Add(bits)
		}
		if n.cfg.Trace != nil {
			n.cfg.Trace.Record(n.now(), uint64(msg.To), "deliver",
				fmt.Sprintf("%v from=%d", msg.Type, msg.From))
		}
		to.host.Deliver(msg)
	})
}
