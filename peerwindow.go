// Package peerwindow implements PeerWindow, the efficient, heterogeneous
// and autonomic node-collection protocol of Hu, Li, Yu, Dong and Zheng
// (ICPP 2005).
//
// Every peer keeps a large "window" of pointers to other peers — each
// pointer carrying the remote peer's address, 128-bit identifier, level,
// and a slice of application-attached info — maintained by multicast
// rather than probing, so that collecting 1000 pointers costs well under
// 1 kbit/s in a typical deployment. Peers pick how much bandwidth to
// spend (heterogeneity) and adjust their level — and therefore their
// window size, about N/2^level pointers — on their own as conditions
// change (autonomy).
//
// The package front-ends the protocol engine in internal/core with an
// in-process overlay: peers run as goroutines connected by a simulated
// network with transit-stub latencies. Applications use it the way §3 of
// the paper sketches — attach info to your pointer, read other peers'
// windows, and select partners locally:
//
//	ov, _ := peerwindow.NewOverlay(peerwindow.Defaults())
//	defer ov.Close()
//	alice, _ := ov.Spawn("alice")
//	bob, _ := ov.Spawn("bob", peerwindow.WithInfo([]byte("os=linux")))
//	...
//	linuxen := alice.View().InfoContains("os=linux")
//
// View returns an immutable, indexed snapshot (see docs/QUERY.md);
// Subscribe delivers window changes as they happen instead of polling.
package peerwindow

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"peerwindow/internal/core"
	"peerwindow/internal/des"
	"peerwindow/internal/metrics"
	"peerwindow/internal/topology"
	"peerwindow/internal/trace"
	"peerwindow/internal/transport"
	"peerwindow/internal/wire"
	"peerwindow/internal/xrand"
)

// Options configures an Overlay. Zero value is not usable; start from
// Defaults.
type Options struct {
	// TopListSize is t, the number of top-node pointers each peer keeps
	// (paper: 8).
	TopListSize int
	// ProbeInterval and ProbeTimeout drive ring failure detection.
	ProbeInterval, ProbeTimeout time.Duration
	// AckTimeout and RetryAttempts drive multicast reliability (paper: 3
	// attempts).
	AckTimeout    time.Duration
	RetryAttempts int
	// ForwardDelay is the per-hop processing cost of the multicast.
	ForwardDelay time.Duration
	// Budget is the default bandwidth each peer spends on collection
	// (bit/s); Spawn can override per peer.
	Budget float64
	// MaxLevel bounds how weak a peer may become.
	MaxLevel int
	// Refresh enables the anti-entropy mechanism of §4.6.
	Refresh bool
	// Gossip switches event dissemination from the §4.2 tree to the §2
	// level-gossip variant — more robust, roughly fanout× the bandwidth.
	Gossip bool
	// WarmUp makes joining peers start small and grow in the background
	// (§4.3).
	WarmUp bool

	// TransitStub, when true, draws latencies from a generated
	// transit-stub topology (the paper's network model); otherwise
	// Latency applies uniformly.
	TransitStub bool
	// Latency is the flat one-way latency without TransitStub.
	Latency time.Duration
	// Dilation compresses time: virtual seconds per wall second. 1 runs
	// in real time; 60 runs a virtual minute per second. Demos use high
	// values; keep AckTimeout/Dilation well above ~5 ms of wall time.
	Dilation float64
	// LossRate drops messages with this probability (fault injection).
	LossRate float64
	// TraceCapacity, when positive, keeps a ring of the last N network
	// events (sends, drops, deliveries); dump it with DumpTrace.
	TraceCapacity int
	// Seed makes identifier assignment and latencies reproducible.
	Seed uint64
}

// Defaults returns the paper-faithful configuration running at 60×
// compressed time.
func Defaults() Options {
	return Options{
		TopListSize:   8,
		ProbeInterval: 30 * time.Second,
		ProbeTimeout:  5 * time.Second,
		AckTimeout:    3 * time.Second,
		RetryAttempts: 3,
		ForwardDelay:  1 * time.Second,
		Budget:        5000,
		MaxLevel:      30,
		Refresh:       true,
		WarmUp:        false,
		TransitStub:   false,
		Latency:       50 * time.Millisecond,
		Dilation:      60,
		Seed:          1,
	}
}

// minWallAckTimeout is the smallest wall-clock ack timeout Validate
// accepts. Below roughly a millisecond of real time, goroutine
// scheduling jitter alone exceeds the timeout and every send looks
// lost.
const minWallAckTimeout = time.Millisecond

// Validate reports whether the options describe a runnable overlay.
// Beyond the per-field range checks it rejects combinations that are
// individually legal but cannot work together — most importantly an
// AckTimeout that, after Dilation compresses it onto the wall clock,
// falls below the scheduler's resolution (AckTimeout/Dilation under
// about 1 ms of wall time): timers would fire before the network
// round-trip completes and the overlay would retry itself to death.
func (o Options) Validate() error {
	switch {
	case o.Dilation < 0:
		return fmt.Errorf("peerwindow: Dilation = %g (must be >= 0; 0 means real time)", o.Dilation)
	case o.Latency < 0:
		return fmt.Errorf("peerwindow: Latency = %v", o.Latency)
	case o.LossRate < 0 || o.LossRate >= 1:
		return fmt.Errorf("peerwindow: LossRate = %g (need 0 <= rate < 1)", o.LossRate)
	case o.TraceCapacity < 0:
		return fmt.Errorf("peerwindow: TraceCapacity = %d", o.TraceCapacity)
	}
	if dil := o.Dilation; dil > 1 {
		if wall := time.Duration(float64(o.AckTimeout) / dil); wall < minWallAckTimeout {
			return fmt.Errorf("peerwindow: AckTimeout %v / Dilation %g = %v of wall time, below the %v scheduler floor",
				o.AckTimeout, dil, wall, minWallAckTimeout)
		}
		if wall := time.Duration(float64(o.ProbeTimeout) / dil); wall < minWallAckTimeout {
			return fmt.Errorf("peerwindow: ProbeTimeout %v / Dilation %g = %v of wall time, below the %v scheduler floor",
				o.ProbeTimeout, dil, wall, minWallAckTimeout)
		}
	}
	if err := o.toCore().Validate(); err != nil {
		return fmt.Errorf("peerwindow: %w", err)
	}
	return nil
}

// toCore translates the public options into the engine configuration.
func (o Options) toCore() core.Config {
	cfg := core.DefaultConfig()
	cfg.TopListSize = o.TopListSize
	cfg.ProbeInterval = des.Time(o.ProbeInterval)
	cfg.ProbeTimeout = des.Time(o.ProbeTimeout)
	cfg.AckTimeout = des.Time(o.AckTimeout)
	cfg.RetryAttempts = o.RetryAttempts
	cfg.ForwardDelay = des.Time(o.ForwardDelay)
	cfg.ThresholdBits = o.Budget
	cfg.MaxLevel = o.MaxLevel
	cfg.RefreshEnabled = o.Refresh
	cfg.GossipMulticast = o.Gossip
	cfg.WarmUp = o.WarmUp
	return cfg
}

// Overlay is an in-process PeerWindow network.
type Overlay struct {
	net      *transport.Network
	dilation float64
	ring     *trace.Ring

	mu    sync.Mutex
	peers map[string]*Peer
	order []*Peer // spawn order, for bootstrap selection
	rng   *xrand.Source
}

// NewOverlay validates o (see Options.Validate) and builds an overlay.
func NewOverlay(o Options) (*Overlay, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	var topo *topology.Network
	rng := xrand.New(o.Seed)
	if o.TransitStub {
		topo = topology.Generate(topology.DefaultParams(), rng.Split(1))
	}
	var ring *trace.Ring
	if o.TraceCapacity > 0 {
		ring = trace.NewRing(o.TraceCapacity)
	}
	net := transport.NewNetwork(transport.NetworkConfig{
		Core:         o.toCore(),
		Topology:     topo,
		ConstLatency: des.Time(o.Latency),
		Dilation:     o.Dilation,
		LossRate:     o.LossRate,
		Seed:         o.Seed,
		Trace:        ring,
	})
	dil := o.Dilation
	if dil < 1 {
		dil = 1
	}
	return &Overlay{
		net:      net,
		dilation: dil,
		ring:     ring,
		peers:    make(map[string]*Peer),
		rng:      rng.Split(2),
	}, nil
}

// DumpTrace writes the retained network trace (if Options.TraceCapacity
// was set) to w and returns how many events were ever recorded.
func (o *Overlay) DumpTrace(w io.Writer) (uint64, error) {
	if o.ring == nil {
		return 0, nil
	}
	return o.ring.Total(), o.ring.Dump(w)
}

// Close stops every peer and the overlay.
func (o *Overlay) Close() { o.net.Close() }

// ErrDuplicateName reports a Spawn with a name already in use.
var ErrDuplicateName = errors.New("peerwindow: peer name already in use")

// SpawnOption customizes one Spawn call. Options compose; later ones
// win on conflict.
type SpawnOption func(*spawnConfig)

// spawnConfig collects the effects of SpawnOptions.
type spawnConfig struct {
	budget float64
	info   []byte
}

// WithBudget sets the peer's collection budget in bit/s — the
// heterogeneity knob of §2. Zero or negative keeps the overlay's
// default.
func WithBudget(bitsPerSec float64) SpawnOption {
	return func(c *spawnConfig) { c.budget = bitsPerSec }
}

// WithInfo attaches application info to the peer's pointer before it
// joins, so every window that ever holds the pointer sees the info from
// the start (§3). At most MaxInfoLen bytes.
func WithInfo(info []byte) SpawnOption {
	return func(c *spawnConfig) { c.info = append([]byte(nil), info...) }
}

// Spawn starts a peer. The first peer bootstraps a fresh overlay; later
// peers join through a random live peer (the §4.3 process). It blocks
// until the join completes. Options tune the peer:
//
//	ov.Spawn("alice", peerwindow.WithBudget(20000), peerwindow.WithInfo([]byte("os=linux")))
func (o *Overlay) Spawn(name string, opts ...SpawnOption) (*Peer, error) {
	var c spawnConfig
	for _, opt := range opts {
		opt(&c)
	}
	if len(c.info) > MaxInfoLen {
		return nil, fmt.Errorf("peerwindow: %q: info %d bytes exceeds %d", name, len(c.info), MaxInfoLen)
	}
	o.mu.Lock()
	if _, dup := o.peers[name]; dup {
		o.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrDuplicateName, name)
	}
	var boot *Peer
	if len(o.order) > 0 {
		// Random live bootstrap.
		alive := make([]*Peer, 0, len(o.order))
		for _, p := range o.order {
			if !p.gone {
				alive = append(alive, p)
			}
		}
		if len(alive) > 0 {
			boot = alive[o.rng.Intn(len(alive))]
		}
	}
	o.mu.Unlock()

	h := o.net.Spawn(name, c.budget)
	if len(c.info) > 0 {
		// Before Bootstrap/Join, so the pointer carries the info from its
		// first announcement on.
		h.SetInfo(c.info)
	}
	p := &Peer{name: name, host: h, overlay: o}
	if boot == nil {
		h.Bootstrap()
	} else if err := h.Join(boot.host.Self(), o.wall(joinTimeout)); err != nil {
		h.Close()
		return nil, fmt.Errorf("peerwindow: %q could not join: %w", name, err)
	}
	o.mu.Lock()
	o.peers[name] = p
	o.order = append(o.order, p)
	o.mu.Unlock()
	return p, nil
}

// Peer returns a spawned peer by name.
func (o *Overlay) Peer(name string) (*Peer, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	p, ok := o.peers[name]
	return p, ok
}

// Peers returns all live peers in spawn order.
func (o *Overlay) Peers() []*Peer {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]*Peer, 0, len(o.order))
	for _, p := range o.order {
		if !p.gone {
			out = append(out, p)
		}
	}
	return out
}

// Histogram is one latency/size distribution inside a MetricsSnapshot.
type Histogram struct {
	// Bounds are the bucket upper bounds; Counts has one extra trailing
	// entry for observations above the last bound.
	Bounds []float64
	Counts []uint64
	// Count and Sum cover every observation, including overflows.
	Count uint64
	Sum   float64
}

// Mean returns the average observed value, or 0 with no observations.
func (h Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// MetricsSnapshot is a point-in-time view of named instruments: counter
// totals, gauge values, and histograms. Names are dotted and stable —
// docs/OBSERVABILITY.md lists them all with their semantics.
type MetricsSnapshot struct {
	Counters   map[string]uint64
	Gauges     map[string]int64
	Histograms map[string]Histogram
}

// Counter returns a counter's value (0 when absent).
func (m MetricsSnapshot) Counter(name string) uint64 { return m.Counters[name] }

// Gauge returns a gauge's value (0 when absent).
func (m MetricsSnapshot) Gauge(name string) int64 { return m.Gauges[name] }

// toPublicMetrics converts the internal snapshot form.
func toPublicMetrics(s metrics.Snapshot) MetricsSnapshot {
	out := MetricsSnapshot{
		Counters:   s.Counters,
		Gauges:     s.Gauges,
		Histograms: make(map[string]Histogram, len(s.Histograms)),
	}
	for name, h := range s.Histograms {
		out.Histograms[name] = Histogram{
			Bounds: h.Bounds,
			Counts: h.Counts,
			Count:  h.Count,
			Sum:    h.Sum,
		}
	}
	return out
}

// Metrics returns the overlay-wide instrument snapshot: the network's
// per-message-type send/recv/drop counts and bits, merged with the sum
// of every live peer's protocol instruments. Counters and histogram
// buckets add across peers; gauges add too (so peer.window_size is the
// total pointer count held across the overlay).
func (o *Overlay) Metrics() MetricsSnapshot {
	s := o.net.Metrics()
	for _, p := range o.Peers() {
		s.Merge(p.host.MetricsSnapshot())
	}
	return toPublicMetrics(s)
}

// Settle sleeps for the given virtual duration — convenience for demos
// that need multicasts to propagate.
func (o *Overlay) Settle(virtual time.Duration) {
	time.Sleep(o.wall(virtual) + 5*time.Millisecond)
}

// joinTimeout is how long (virtual) Spawn waits for a join.
const joinTimeout = 5 * time.Minute

// wall converts a virtual duration to wall time under the overlay's
// dilation.
func (o *Overlay) wall(virtual time.Duration) time.Duration {
	return time.Duration(float64(virtual) / o.dilation)
}

// Peer is one live PeerWindow participant.
type Peer struct {
	name    string
	host    *transport.Host
	overlay *Overlay
	gone    bool
}

// Name returns the peer's spawn name.
func (p *Peer) Name() string { return p.name }

// ID returns the peer's 128-bit identifier as 32 hex digits.
func (p *Peer) ID() string { return p.host.Self().ID.String() }

// Level returns the peer's current level; its window holds about
// N/2^level pointers.
func (p *Peer) Level() int { return p.host.Level() }

// InputRate returns the measured maintenance bandwidth in bit/s of
// virtual time.
func (p *Peer) InputRate() float64 { return p.host.InputRate() }

// Metrics returns this peer's protocol instrument snapshot: multicast
// fan-out and delivery counters, ack retries, probe rounds and the
// failure-detection latency histogram, level shifts, refresh activity,
// and the peer.* gauges (level, window size, measured rates). Names and
// semantics are listed in docs/OBSERVABILITY.md.
func (p *Peer) Metrics() MetricsSnapshot {
	return toPublicMetrics(p.host.MetricsSnapshot())
}

// SetInfo attaches application info to the peer's pointer and announces
// the change to every window holding it (§3). Info must be at most 255
// bytes — the paper insists pointers stay small.
func (p *Peer) SetInfo(info []byte) { p.host.SetInfo(info) }

// SetBudget changes the peer's collection budget at runtime (§2
// autonomy).
func (p *Peer) SetBudget(bitsPerSec float64) { p.host.SetThreshold(bitsPerSec) }

// Leave departs politely, announcing the leave.
func (p *Peer) Leave() {
	p.markGone()
	p.host.Leave()
}

// Crash stops the peer silently; ring probing will detect it.
func (p *Peer) Crash() {
	p.markGone()
	p.host.Close()
}

func (p *Peer) markGone() {
	p.overlay.mu.Lock()
	p.gone = true
	delete(p.overlay.peers, p.name)
	p.overlay.mu.Unlock()
}

// Pointer is one entry of a peer's window: a piece of information about
// another node (§2).
type Pointer struct {
	// ID is the node's identifier in hex.
	ID string
	// Addr is its (opaque) network address.
	Addr uint64
	// Level is the node's announced level; smaller is stronger, and
	// stronger correlates with longer uptime and more resources (§3).
	Level int
	// Info is the application-attached payload.
	Info []byte
}

// MaxInfoLen is the largest attached-info payload a pointer may carry
// (§3 keeps pointers small so windows stay large).
const MaxInfoLen = wire.MaxInfoLen
