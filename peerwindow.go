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
// in-process overlay that is the repository's discrete-event simulator:
// every peer is a core.Node inside one sim.Cluster, messages are engine
// events delayed by flat or transit-stub latencies, and time is virtual —
// it passes only inside Spawn (while a join runs) and Settle. The same
// seed and the same sequence of calls therefore give the same windows,
// metrics and traces. Applications use it the way §3 of the paper
// sketches — attach info to your pointer, let the protocol run, read
// other peers' windows, and select partners locally:
//
//	ov, _ := peerwindow.NewOverlay(peerwindow.Defaults())
//	defer ov.Close()
//	alice, _ := ov.Spawn("alice")
//	bob, _ := ov.Spawn("bob", peerwindow.WithInfo([]byte("os=linux")))
//	ov.Settle(time.Minute)
//	...
//	linuxen := alice.View().InfoContains("os=linux")
//
// View returns an immutable, indexed snapshot (see docs/QUERY.md);
// Subscribe delivers window changes as Settle applies them instead of
// polling.
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
	"peerwindow/internal/query"
	"peerwindow/internal/sim"
	"peerwindow/internal/topology"
	"peerwindow/internal/trace"
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
	// WarmUp makes joining peers start small and grow in the background
	// (§4.3).
	WarmUp bool

	// TransitStub, when true, draws latencies from a generated
	// transit-stub topology (the paper's network model); otherwise
	// Latency applies uniformly.
	TransitStub bool
	// Latency is the flat one-way latency without TransitStub.
	Latency time.Duration
	// LossRate drops messages with this probability (fault injection).
	LossRate float64
	// TraceCapacity, when positive, keeps the last N spans of the whole
	// overlay — multicast trees, protocol moments (probe rounds, retries,
	// detections, shifts, refreshes) and injected losses; dump them with
	// DumpTrace.
	TraceCapacity int
	// Seed makes identifier assignment, latencies, losses and every
	// protocol choice reproducible.
	Seed uint64
}

// Defaults returns the paper-faithful configuration.
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
		Seed:          1,
	}
}

// Validate reports whether the options describe a runnable overlay.
func (o Options) Validate() error {
	switch {
	case o.Latency < 0:
		return fmt.Errorf("peerwindow: Latency = %v", o.Latency)
	case o.LossRate < 0 || o.LossRate >= 1:
		return fmt.Errorf("peerwindow: LossRate = %g (need 0 <= rate < 1)", o.LossRate)
	case o.TraceCapacity < 0:
		return fmt.Errorf("peerwindow: TraceCapacity = %d", o.TraceCapacity)
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
	cfg.WarmUp = o.WarmUp
	return cfg
}

// Overlay is an in-process PeerWindow network. Its methods, and those of
// its peers, are safe from any goroutine: every call that touches the
// simulation runs whole, one at a time, under the overlay's lock.
type Overlay struct {
	spans *trace.SpanBuffer

	// mu serializes every call that touches the simulation; once closed
	// is set, they run nothing.
	mu     sync.Mutex
	closed bool

	// Guarded by mu.
	c     *sim.Cluster
	peers map[string]*Peer
	order []*Peer // spawn order
}

// NewOverlay validates o (see Options.Validate) and builds an overlay.
func NewOverlay(o Options) (*Overlay, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	cfg := sim.ClusterConfig{
		Core:         o.toCore(),
		ConstLatency: des.Time(o.Latency),
		LossRate:     o.LossRate,
		Seed:         o.Seed,
	}
	if o.TransitStub {
		cfg.Net = topology.Generate(topology.DefaultParams(), xrand.New(o.Seed).Split(1))
	}
	ov := &Overlay{peers: make(map[string]*Peer)}
	if o.TraceCapacity > 0 {
		ov.spans = trace.NewSpanBuffer(o.TraceCapacity)
		cfg.Spans = ov.spans
	}
	ov.c = sim.NewCluster(cfg)
	return ov, nil
}

// DumpTrace writes the retained spans (if Options.TraceCapacity was set)
// to w as JSON lines, oldest first — the format cmd/pwtrace reads — and
// returns how many spans were ever recorded.
func (o *Overlay) DumpTrace(w io.Writer) (uint64, error) {
	if o.spans == nil {
		return 0, nil
	}
	return o.spans.Total(), o.spans.WriteJSONL(w)
}

// Close stops every peer and the overlay. Views, subscriptions and
// DumpTrace stay readable; other calls do nothing and return zero values,
// and Spawn fails. Idempotent.
func (o *Overlay) Close() {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return
	}
	o.closed = true
	for _, p := range o.order {
		o.c.Kill(p.sn)
	}
}

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

// joinTimeout is how much virtual time Spawn gives a join.
const joinTimeout = 5 * des.Minute

// Spawn starts a peer. The first peer bootstraps a fresh overlay; later
// peers join through a random joined peer (the §4.3 process). Spawn runs
// the simulation until the join completes, so the rest of the overlay
// advances too. Options tune the peer:
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
	defer o.mu.Unlock()
	if o.closed {
		return nil, fmt.Errorf("peerwindow: Spawn %q on a closed overlay", name)
	}
	if _, dup := o.peers[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateName, name)
	}
	sn := o.c.AddNamedNode(name, c.budget)
	if len(c.info) > 0 {
		// Before Bootstrap/Join, so the pointer carries the info from its
		// first announcement on.
		sn.Node.SetInfo(c.info)
	}
	p := &Peer{
		name:    name,
		id:      sn.Node.Self().ID.String(),
		sn:      sn,
		store:   query.NewStore(nil),
		overlay: o,
	}
	// The store is attached before Bootstrap/Join, so it folds the window
	// from empty and its views are always exactly the peer list.
	sn.Node.SetDeltas(p.store)
	if boot := o.c.RandomJoined(sn); boot == nil {
		o.c.Bootstrap(sn)
	} else if err := o.c.Join(sn, boot, joinTimeout); err != nil {
		o.c.Kill(sn)
		return nil, fmt.Errorf("peerwindow: %q could not join: %w", name, err)
	}
	o.peers[name] = p
	o.order = append(o.order, p)
	return p, nil
}

// Peer returns a spawned peer by name.
func (o *Overlay) Peer(name string) (p *Peer, ok bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return nil, false
	}
	p, ok = o.peers[name]
	return p, ok
}

// Peers returns all live peers in spawn order.
func (o *Overlay) Peers() []*Peer {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return nil
	}
	return o.live()
}

// live lists the live peers in spawn order; the caller holds o.mu.
func (o *Overlay) live() []*Peer {
	out := make([]*Peer, 0, len(o.order))
	for _, p := range o.order {
		if p.sn.Alive() {
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
// per-message-type send/drop counts and sent bits, merged with the sum
// of every live peer's protocol instruments. Counters and histogram
// buckets add across peers; gauges add too (so peer.window_size is the
// total pointer count held across the overlay).
func (o *Overlay) Metrics() MetricsSnapshot {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return MetricsSnapshot{}
	}
	s := o.c.NetMetrics()
	for _, p := range o.live() {
		s.Merge(p.metrics())
	}
	return toPublicMetrics(s)
}

// Settle runs the overlay for the given virtual duration: multicasts
// propagate, probes and level shifts happen, subscriptions receive their
// events.
func (o *Overlay) Settle(virtual time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return
	}
	o.c.Run(des.Time(virtual))
}

// Peer is one PeerWindow participant.
type Peer struct {
	name    string
	id      string
	sn      *sim.SimNode
	store   *query.Store
	overlay *Overlay
}

// Name returns the peer's spawn name.
func (p *Peer) Name() string { return p.name }

// with evaluates a getter on the peer's node under the overlay's lock;
// after Close it returns T's zero value.
func with[T any](p *Peer, f func(*core.Node) T) (v T) {
	o := p.overlay
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.closed {
		v = f(p.sn.Node)
	}
	return v
}

// ID returns the peer's 128-bit identifier as 32 hex digits.
func (p *Peer) ID() string { return p.id }

// Level returns the peer's current level; its window holds about
// N/2^level pointers.
func (p *Peer) Level() int { return with(p, (*core.Node).Level) }

// InputRate returns the measured maintenance bandwidth in bit/s of
// virtual time.
func (p *Peer) InputRate() float64 { return with(p, (*core.Node).InputRate) }

// Metrics returns this peer's protocol instrument snapshot: multicast
// fan-out and delivery counters, ack retries, probe rounds and the
// failure-detection latency histogram, level shifts, refresh activity,
// the peer.* gauges (level, window size, measured rates) and the query
// plane's. Names and semantics are listed in docs/OBSERVABILITY.md.
func (p *Peer) Metrics() MetricsSnapshot {
	return toPublicMetrics(with(p, func(*core.Node) metrics.Snapshot { return p.metrics() }))
}

// metrics merges the node's instruments with its store's; the caller
// holds the overlay's lock.
func (p *Peer) metrics() metrics.Snapshot {
	s := p.sn.Node.MetricsSnapshot()
	s.Merge(p.store.MetricsSnapshot())
	return s
}

// SetInfo attaches application info to the peer's pointer and announces
// the change to every window holding it (§3); the announcement spreads
// as the overlay runs. Info must be at most 255 bytes — the paper insists
// pointers stay small.
func (p *Peer) SetInfo(info []byte) {
	o := p.overlay
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.closed {
		p.sn.Node.SetInfo(info)
	}
}

// SetBudget changes the peer's collection budget at runtime (§2
// autonomy).
func (p *Peer) SetBudget(bitsPerSec float64) {
	o := p.overlay
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.closed {
		p.sn.Node.SetThreshold(bitsPerSec)
	}
}

// Leave departs politely, announcing the leave.
func (p *Peer) Leave() { p.depart(true) }

// Crash stops the peer silently; ring probing will detect it.
func (p *Peer) Crash() { p.depart(false) }

// depart removes the peer from the overlay's name table and stops its
// node: with a leave announcement when polite, silently otherwise.
func (p *Peer) depart(polite bool) {
	o := p.overlay
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return
	}
	if o.peers[p.name] == p {
		delete(o.peers, p.name)
	}
	if polite {
		o.c.Leave(p.sn)
	} else {
		o.c.Kill(p.sn)
	}
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
