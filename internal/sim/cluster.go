// Package sim is the experiment harness — the layer that plays the role
// of the paper's ONSP-based setup (§5). It provides two fidelities:
//
//   - Cluster (this file): full-fidelity simulation. Every protocol
//     message is a discrete event delivered with transit-stub latency;
//     every node runs the real internal/core state machine. Exact, used
//     for protocol tests, the multicast property checks, and as the
//     calibration reference — but O(N²) memory in peer lists, so it is
//     run at thousands of nodes, not 100,000.
//
//   - ShardedScaled (shardedscaled.go): the paper's own trick — one
//     canonical peer list per eigenstring group held centrally, with
//     per-node error accounting driven by an analytic multicast-delay
//     model measured from the full-fidelity mode. This reproduces the
//     100,000-node figures on a laptop, exactly as ONSP + the shared
//     peer-list structure did for the authors; every figure runs on it
//     at one shard, the million-node runs at several.
package sim

import (
	"fmt"

	"peerwindow/internal/core"
	"peerwindow/internal/des"
	"peerwindow/internal/invariant"
	"peerwindow/internal/metrics"
	"peerwindow/internal/nodeid"
	"peerwindow/internal/oracle"
	"peerwindow/internal/topology"
	"peerwindow/internal/trace"
	"peerwindow/internal/wire"
	"peerwindow/internal/xrand"
)

// Event-tag kinds the cluster stamps on engine events, so a des.Chooser
// (the model checker) can tell a message delivery from a node timer and
// attribute either to its node. Harness-internal events (churn arrivals,
// metric sampling, scripted scenario stimuli) stay untagged and are not
// reordered.
const (
	// TagDeliver marks a message delivery; Owner is the destination
	// address. Dropping one models network loss.
	TagDeliver uint8 = 1
	// TagTimer marks a node timer; Owner is the node's address. Timers
	// can be delayed by a chooser but never dropped.
	TagTimer uint8 = 2
)

// ClusterConfig parameterises a full-fidelity run.
type ClusterConfig struct {
	// Core is the per-node protocol configuration; per-node thresholds
	// are overridden at AddNode time.
	Core core.Config
	// Net provides latency; when nil, a flat ConstLatency is used.
	Net *topology.Network
	// ConstLatency is used when Net is nil (defaults to 50 ms).
	ConstLatency des.Time
	// LossRate drops each message independently with this probability —
	// the fault-injection knob.
	LossRate float64
	// Seed drives every random choice in the run.
	Seed uint64
	// Spans, when non-nil, turns on tracing: every node stamps trace IDs
	// on the events it announces and records the spans of their trees plus
	// every protocol moment (probe rounds, retries, detections, level
	// shifts, …) here, stamped with virtual time, and the harness adds a
	// drop span for each message lost to loss injection. Use
	// EnableSpanCollection for the oracle-cross-checked variant.
	Spans trace.SpanSink
}

// Cluster is a deterministic full-fidelity simulation of a PeerWindow
// overlay.
type Cluster struct {
	cfg    ClusterConfig
	Engine *des.Engine
	rng    *xrand.Source
	netRng *xrand.Source

	nodes    []*SimNode
	byAddr   map[wire.Addr]*SimNode
	nextAddr wire.Addr

	// Truth is the ground-truth membership registry, updated by the
	// harness as it drives joins and kills.
	Truth *oracle.Registry

	// Message accounting.
	MessagesSent uint64
	BitsSent     uint64
	Dropped      uint64
	SentByType   map[wire.MsgType]uint64

	// netReg carries the harness's own network-layer instruments (the
	// nodes' registries only see what reaches them); unknownDest counts
	// sends whose destination address is not in the cluster.
	netReg      *metrics.Registry
	unknownDest *metrics.Counter

	// inflight maps the engine sequence number of each pending delivery
	// event to its record, so a chooser-injected drop (see NoteDropped)
	// can be recorded as a trace span. Only maintained when a span sink
	// is attached; nil otherwise.
	inflight map[uint64]*delivery

	// deliveryPool and timerPool hold fired delivery and timerFire records
	// for reuse (see those types), so Send and SetTimer create no closure
	// per call once the pools are warm. They are plain per-cluster free
	// lists: a cluster runs on one goroutine, and reuse order is a pure
	// function of the event order, so seeded runs stay bit-identical.
	deliveryPool []*delivery
	timerPool    []*timerFire

	// keyed makes deliveries and timers carry shard-invariant (sender,
	// issue-order) tie-break keys instead of relying on engine insertion
	// order — required when this cluster is one shard of a ShardedCluster,
	// where insertion order differs between shard counts but key order
	// does not.
	keyed bool
	// route, when set, is offered messages whose destination is not local
	// before they are counted as unknown; a ShardedCluster installs it to
	// forward cross-shard sends through the window-barrier mailboxes. It
	// reports whether it accepted the message.
	route func(sn *SimNode, msg wire.Message, key uint64) bool

	// onAddNode observes every node the moment it is added — the hook
	// the telemetry tap (telemetry.go) uses to attach exporters to nodes
	// created after ExportTelemetry was called.
	onAddNode func(sn *SimNode)
}

// SimNode wraps one core.Node inside the cluster and implements
// core.Env for it.
type SimNode struct {
	c      *Cluster
	Node   *core.Node
	Addr   wire.Addr
	Attach topology.Attachment
	rng    *xrand.Source
	alive  bool

	// issueSeq feeds nextKey in keyed mode.
	issueSeq uint32
}

// nextKey returns the node's next shard-invariant event tie-break key:
// (address, issue counter). Addresses are globally unique and the
// counter advances in the node's own execution order, which is itself
// key-ordered — so the total (time, key) order of events is a pure
// function of the simulation, not of how nodes are grouped into shards.
func (sn *SimNode) nextKey() uint64 {
	k := uint64(sn.Addr)<<32 | uint64(sn.issueSeq)
	sn.issueSeq++
	return k
}

// NewCluster builds an empty cluster.
func NewCluster(cfg ClusterConfig) *Cluster {
	if cfg.ConstLatency <= 0 {
		cfg.ConstLatency = 50 * des.Millisecond
	}
	if err := cfg.Core.Validate(); err != nil {
		panic(err)
	}
	root := xrand.New(cfg.Seed)
	netReg := metrics.NewRegistry()
	return &Cluster{
		cfg:         cfg,
		Engine:      des.New(),
		rng:         root.Split(1),
		netRng:      root.Split(2),
		byAddr:      make(map[wire.Addr]*SimNode),
		Truth:       oracle.NewRegistry(),
		SentByType:  make(map[wire.MsgType]uint64),
		netReg:      netReg,
		unknownDest: netReg.Counter(metrics.MetricNetSendUnknownDest),
	}
}

// NetMetrics snapshots the harness's network-layer instruments (e.g.
// unknown-destination sends).
func (c *Cluster) NetMetrics() metrics.Snapshot { return c.netReg.Snapshot() }

// Nodes returns all nodes ever added (including dead ones).
func (c *Cluster) Nodes() []*SimNode { return c.nodes }

// Alive reports whether the node is still running (not killed, not
// departed).
func (sn *SimNode) Alive() bool { return sn.alive }

// Alive returns the currently alive nodes.
func (c *Cluster) Alive() []*SimNode {
	out := make([]*SimNode, 0, len(c.nodes))
	for _, n := range c.nodes {
		if n.alive {
			out = append(out, n)
		}
	}
	return out
}

// RandomJoined picks a uniformly random alive, joined node other than
// exclude — the usual way to choose a bootstrap. It returns nil when none
// exists.
func (c *Cluster) RandomJoined(exclude *SimNode) *SimNode {
	candidates := make([]*SimNode, 0, len(c.nodes))
	for _, n := range c.nodes {
		if n.alive && n != exclude && n.Node.Joined() {
			candidates = append(candidates, n)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	return candidates[c.rng.Intn(len(candidates))]
}

// RandomID draws a uniformly distributed identifier — "nodes should be
// evenly distributed in the nodeId space" (§2).
func (c *Cluster) RandomID() nodeid.ID {
	return nodeid.ID{Hi: c.rng.Uint64(), Lo: c.rng.Uint64()}
}

// AddNode creates a node with the given bandwidth budget (bit/s) but does
// not join it; call Bootstrap or Join next.
func (c *Cluster) AddNode(threshold float64) *SimNode {
	c.nextAddr++
	addr := c.nextAddr
	var attach topology.Attachment
	if c.cfg.Net != nil {
		attach = c.cfg.Net.RandomAttachment(c.rng)
	}
	return c.addNodeAt(addr, attach, c.rng.Split(uint64(addr)), c.RandomID(), threshold)
}

// addNodeAt is AddNode with every per-node draw supplied by the caller —
// the entry point a ShardedCluster uses so that addresses, attachments,
// identifiers and RNG streams come from one global, shard-count-invariant
// sequence instead of this shard's.
func (c *Cluster) addNodeAt(addr wire.Addr, attach topology.Attachment, rng *xrand.Source, id nodeid.ID, threshold float64) *SimNode {
	sn := &SimNode{
		c:      c,
		Addr:   addr,
		Attach: attach,
		rng:    rng,
		alive:  true,
	}
	coreCfg := c.cfg.Core
	if threshold > 0 {
		coreCfg.ThresholdBits = threshold
	}
	self := wire.Pointer{Addr: addr, ID: id}
	sn.Node = core.NewNode(coreCfg, sn, core.Observer{}, self)
	if c.cfg.Spans != nil {
		sn.Node.SetSpanSink(c.cfg.Spans)
	}
	c.nodes = append(c.nodes, sn)
	c.byAddr[addr] = sn
	if c.onAddNode != nil {
		c.onAddNode(sn)
	}
	return sn
}

// Bootstrap starts sn as the first overlay member and records it in the
// truth registry.
func (c *Cluster) Bootstrap(sn *SimNode) {
	sn.Node.Bootstrap()
	c.Truth.Join(sn.Node.Self())
}

// Join runs the §4.3 joining process for sn against a bootstrap node,
// advancing virtual time until it completes. It returns the join error.
func (c *Cluster) Join(sn, bootstrap *SimNode, timeout des.Time) error {
	var result error
	finished := false
	sn.Node.Join(bootstrap.Node.Self(), func(err error) {
		result = err
		finished = true
	})
	deadline := c.Engine.Now() + timeout
	for !finished && c.Engine.Now() < deadline {
		if !c.Engine.Step() {
			break
		}
	}
	if !finished {
		return fmt.Errorf("sim: join did not finish within %v", timeout)
	}
	if result == nil {
		c.Truth.Join(sn.Node.Self())
	}
	return result
}

// JoinAsync starts a join without advancing time; the truth registry is
// updated when the join completes.
func (c *Cluster) JoinAsync(sn, bootstrap *SimNode) {
	sn.Node.Join(bootstrap.Node.Self(), func(err error) {
		if err == nil && sn.alive {
			c.Truth.Join(sn.Node.Self())
		}
	})
}

// Kill crashes a node without notice; ring probing has to find out
// (§4.1).
func (c *Cluster) Kill(sn *SimNode) {
	if !sn.alive {
		return
	}
	sn.alive = false
	sn.Node.Stop()
	c.Truth.Leave(sn.Node.Self().ID)
}

// Leave makes a node depart voluntarily, announcing the leave first.
func (c *Cluster) Leave(sn *SimNode) {
	if !sn.alive {
		return
	}
	sn.Node.Leave()
	sn.alive = false
	c.Truth.Leave(sn.Node.Self().ID)
}

// SyncTruth refreshes the truth registry's view of a node whose level or
// info changed (the harness calls it after runs; level shifts done by
// the protocol itself are picked up here).
func (c *Cluster) SyncTruth() {
	for _, sn := range c.nodes {
		if sn.alive {
			c.Truth.Update(sn.Node.Self())
		}
	}
}

// Run advances virtual time by d.
func (c *Cluster) Run(d des.Time) {
	c.Engine.Run(c.Engine.Now() + d)
	c.SyncTruth()
}

// QuiescentWithin reports whether no live event is scheduled within the
// next horizon of virtual time — the model checker's notion of a settled
// state (periodic timers re-armed far in the future don't count as
// pending protocol work).
func (c *Cluster) QuiescentWithin(horizon des.Time) bool {
	at, ok := c.Engine.NextAt()
	return !ok || at > c.Engine.Now()+horizon
}

// Audit compares a node's peer list against ground truth.
func (c *Cluster) Audit(sn *SimNode) oracle.Errors {
	self := sn.Node.Self()
	return c.Truth.Audit(self.ID, sn.Node.Eigenstring(), sn.Node.Peers().Pointers())
}

// latency returns the network latency between two attachment points.
func (c *Cluster) latency(a, b *SimNode) des.Time {
	if c.cfg.Net != nil {
		return c.cfg.Net.Latency(a.Attach, b.Attach)
	}
	return c.cfg.ConstLatency
}

// --- core.Env implementation -------------------------------------------

// Now implements core.Env.
func (sn *SimNode) Now() des.Time { return sn.c.Engine.Now() }

// Rand implements core.Env.
func (sn *SimNode) Rand() *xrand.Source { return sn.rng }

// Send implements core.Env: account, maybe drop, and deliver after the
// topology latency if the destination is still alive then.
func (sn *SimNode) Send(msg wire.Message) {
	c := sn.c
	c.MessagesSent++
	c.BitsSent += uint64(msg.SizeBits())
	c.SentByType[msg.Type]++
	var key uint64
	if c.keyed {
		key = sn.nextKey()
	}
	if c.cfg.LossRate > 0 && c.netRng.Float64() < c.cfg.LossRate {
		c.Dropped++
		if c.cfg.Spans != nil {
			c.cfg.Spans.RecordSpan(trace.DropSpan(c.Engine.Now(), &msg))
		}
		return
	}
	dst, ok := c.byAddr[msg.To]
	if !ok {
		if c.route != nil && c.route(sn, msg, key) {
			return
		}
		// A send into the void — a stale pointer naming an address the
		// cluster never assigned, or a harness bug. The message vanishes
		// (the protocol's acks handle it like loss), but the count makes
		// it visible instead of silently absorbed.
		c.unknownDest.Inc()
		return
	}
	c.deliverAt(c.Engine.Now()+c.latency(sn, dst), key, dst, msg)
}

// delivery is one message in flight: the engine event that hands msg to
// dst. Records are pooled per Cluster. One is live from deliverAt until it
// fires — or until NoteDropped, when a chooser discards its event — and
// only then returns to the pool, so the engine never holds a callback to a
// recycled record. A delivery dropped without NoteDropped (no span sink
// attached) is simply left to the garbage collector.
type delivery struct {
	dst *SimNode
	msg wire.Message
	// seq is the engine sequence number of the delivery event, the
	// inflight key; set only while the cluster keeps an inflight map.
	seq uint64
	// fire is the engine callback, bound to this record once when it is
	// first created.
	fire func()
}

// acquireDelivery takes a record from the cluster's pool.
//
//pwlint:noalloc
func (c *Cluster) acquireDelivery() *delivery {
	if k := len(c.deliveryPool); k > 0 {
		d := c.deliveryPool[k-1]
		c.deliveryPool = c.deliveryPool[:k-1]
		return d
	}
	return c.newDelivery() //pwlint:allow noalloc pool miss; steady state reuses released records
}

func (c *Cluster) newDelivery() *delivery {
	d := &delivery{}
	d.fire = func() {
		if c.inflight != nil {
			delete(c.inflight, d.seq)
		}
		if d.dst.alive {
			d.dst.Node.HandleMessage(d.msg)
			if invariant.Enabled {
				invariant.Check(d.dst.Node)
			}
		}
		c.releaseDelivery(d)
	}
	return d
}

// releaseDelivery returns a fired or dropped record to the pool.
//
//pwlint:noalloc
func (c *Cluster) releaseDelivery(d *delivery) {
	d.dst = nil
	d.msg.Pointers = nil // a peer-list download must not outlive its delivery
	c.deliveryPool = append(c.deliveryPool, d)
}

// deliverAt schedules the delivery of msg to the local node dst at the
// absolute time at.
func (c *Cluster) deliverAt(at des.Time, key uint64, dst *SimNode, msg wire.Message) {
	d := c.acquireDelivery()
	d.dst, d.msg = dst, msg
	h := c.Engine.AtKey(at, key, des.EventTag{Owner: uint64(msg.To), Kind: TagDeliver}, d.fire)
	if c.cfg.Spans != nil {
		d.seq = h.Seq()
		if c.inflight == nil {
			c.inflight = make(map[uint64]*delivery)
		}
		c.inflight[d.seq] = d
	}
}

// NoteDropped records a chooser-injected drop of the pending delivery
// with the given engine sequence number: the model checker discards the
// event inside the engine, where the message content is out of reach, so
// it reports the seq back here for span accounting: the message gets the
// same SpanDrop a random network loss would, and the delivery's record
// goes back to the pool, since its event will never fire. An unknown seq
// is a no-op.
func (c *Cluster) NoteDropped(seq uint64) {
	d, ok := c.inflight[seq]
	if !ok {
		return
	}
	delete(c.inflight, seq)
	c.cfg.Spans.RecordSpan(trace.DropSpan(c.Engine.Now(), &d.msg))
	c.releaseDelivery(d)
}

// simTimer is the core.Timer a SetTimer returns. It is allocated per
// timer and never reused, so a stale Cancel can only ever reach its own
// (generation-checked) engine handle: cancelling after the timer fired is
// a no-op and cannot touch a successor.
type simTimer struct {
	h    des.Handle
	fire *timerFire
}

// Cancel implements core.Timer.
func (t *simTimer) Cancel() bool {
	if !t.h.Cancel() {
		return false
	}
	// The event was still pending, so its record is still this timer's
	// and will now never fire.
	t.fire.sn.c.releaseTimerFire(t.fire)
	return true
}

// timerFire is the engine-side half of a timer: the aliveness guard
// around the node's callback. Records are pooled per Cluster; one is
// live from SetTimer until it fires or its timer is cancelled.
type timerFire struct {
	sn *SimNode
	fn func()
	// fire is the engine callback, bound to this record once when it is
	// first created.
	fire func()
}

// acquireTimerFire takes a record from the cluster's pool.
//
//pwlint:noalloc
func (c *Cluster) acquireTimerFire() *timerFire {
	if k := len(c.timerPool); k > 0 {
		f := c.timerPool[k-1]
		c.timerPool = c.timerPool[:k-1]
		return f
	}
	return c.newTimerFire() //pwlint:allow noalloc pool miss; steady state reuses released records
}

func (c *Cluster) newTimerFire() *timerFire {
	f := &timerFire{}
	f.fire = func() {
		// Release first, so a callback that re-arms its timer (most do)
		// reuses this record instead of growing the pool.
		sn, fn := f.sn, f.fn
		c.releaseTimerFire(f)
		if sn.alive {
			fn()
			if invariant.Enabled && sn.alive {
				invariant.Check(sn.Node)
			}
		}
	}
	return f
}

// releaseTimerFire returns a fired or cancelled record to the pool.
//
//pwlint:noalloc
func (c *Cluster) releaseTimerFire(f *timerFire) {
	f.sn, f.fn = nil, nil
	c.timerPool = append(c.timerPool, f)
}

// SetTimer implements core.Env.
func (sn *SimNode) SetTimer(delay des.Time, fn func()) core.Timer {
	c := sn.c
	var key uint64
	if c.keyed {
		key = sn.nextKey()
	}
	f := c.acquireTimerFire()
	f.sn, f.fn = sn, fn
	h := c.Engine.AtKey(c.Engine.Now()+delay, key, des.EventTag{Owner: uint64(sn.Addr), Kind: TagTimer}, f.fire)
	return &simTimer{h: h, fire: f}
}
