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
	"peerwindow/internal/freelist"
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

	nodes []*SimNode
	// byAddr is indexed by address: addresses are dense, issued from 1
	// up. A nil or out-of-range entry is an address with no local node
	// (a ShardedCluster shard holds nil for other shards' nodes).
	byAddr   []*SimNode
	nextAddr wire.Addr

	// Truth is the ground-truth membership registry, updated by the
	// harness as it drives joins and kills.
	Truth *oracle.Registry

	// Message accounting.
	MessagesSent uint64
	BitsSent     uint64
	Dropped      uint64
	SentByType   map[wire.MsgType]uint64
	// bitsByType and droppedByType split BitsSent and Dropped by message
	// type, for NetMetrics.
	bitsByType, droppedByType [wire.MsgTopListResp + 1]uint64

	// unknownDest counts sends whose destination address is not in the
	// cluster (the nodes' instruments only see what reaches them).
	unknownDest uint64

	// deliveries and timers hold fired delivery and timerFire records for
	// reuse (see those types), so Send and SetTimer allocate nothing once
	// the lists are warm.
	deliveries freelist.List[delivery, *delivery]
	timers     freelist.List[timerFire, *timerFire]

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

	// pool stores the peer lists of every node in the cluster (see
	// core.ChunkPool): nodes whose eigenstrings agree hold the same runs
	// of entries, and the pool keeps each run once. A cluster runs on one
	// goroutine, so a ShardedCluster shard has a pool of its own.
	pool *core.ChunkPool

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
	return &Cluster{
		cfg:        cfg,
		Engine:     des.New(),
		rng:        root.Split(1),
		netRng:     root.Split(2),
		Truth:      oracle.NewRegistry(),
		SentByType: make(map[wire.MsgType]uint64),
		pool:       new(core.ChunkPool),
	}
}

// NetMetrics snapshots the harness's network-layer instruments: the
// per-message-type send, bit and drop counts of the message accounting,
// unknown-destination sends, and the number of live nodes.
func (c *Cluster) NetMetrics() metrics.Snapshot {
	s := metrics.Snapshot{
		Counters: map[string]uint64{metrics.MetricNetSendUnknownDest: c.unknownDest},
		Gauges:   map[string]int64{metrics.MetricNetHosts: int64(len(c.Alive()))},
	}
	for t := wire.MsgEvent; t <= wire.MsgTopListResp; t++ {
		name := t.String()
		s.Counters[metrics.MetricNetSendPrefix+name] = c.SentByType[t]
		s.Counters[metrics.MetricNetSendBitsPrefix+name] = c.bitsByType[t]
		s.Counters[metrics.MetricNetDropPrefix+name] = c.droppedByType[t]
	}
	return s
}

// Nodes returns all nodes ever added, dead ones included; a dead node
// keeps its identity and counters, and its lists are empty (Node.Stop).
func (c *Cluster) Nodes() []*SimNode { return c.nodes }

// Alive reports whether the node is still running (not killed, not
// departed): whether its core.Node is not stopped.
func (sn *SimNode) Alive() bool { return !sn.Node.Stopped() }

// Alive returns the currently alive nodes.
func (c *Cluster) Alive() []*SimNode {
	out := make([]*SimNode, 0, len(c.nodes))
	for _, n := range c.nodes {
		if n.Alive() {
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
		if n != exclude && n.Node.Joined() {
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
func (c *Cluster) AddNode(threshold float64) *SimNode { return c.AddNamedNode("", threshold) }

// AddNamedNode is AddNode with the identifier derived from name: the
// consistent hash of "name/addr" — a public-key stand-in, salted with the
// node's address so equal names stay distinct (§2). An empty name draws a
// uniformly random identifier, as AddNode does.
func (c *Cluster) AddNamedNode(name string, threshold float64) *SimNode {
	c.nextAddr++
	addr := c.nextAddr
	var attach topology.Attachment
	if c.cfg.Net != nil {
		attach = c.cfg.Net.RandomAttachment(c.rng)
	}
	rng := c.rng.Split(uint64(addr))
	var id nodeid.ID
	if name == "" {
		id = c.RandomID()
	} else {
		id = nodeid.Hash(fmt.Appendf(nil, "%s/%d", name, addr))
	}
	return c.addNodeAt(addr, attach, rng, id, threshold)
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
	if k := int(addr) + 1 - len(c.byAddr); k > 0 {
		c.byAddr = append(c.byAddr, make([]*SimNode, k)...)
	}
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
		if err == nil {
			c.Truth.Join(sn.Node.Self())
		}
	})
}

// Kill crashes a node without notice; ring probing has to find out
// (§4.1). On a dead node it does nothing.
func (c *Cluster) Kill(sn *SimNode) {
	sn.Node.Stop()
	c.Truth.Leave(sn.Node.Self().ID)
}

// Leave makes a node depart voluntarily, announcing the leave first. On
// a dead node it does nothing.
func (c *Cluster) Leave(sn *SimNode) {
	sn.Node.Leave()
	c.Truth.Leave(sn.Node.Self().ID)
}

// SyncTruth refreshes the truth registry's view of a node whose level or
// info changed (the harness calls it after runs; level shifts done by
// the protocol itself are picked up here).
func (c *Cluster) SyncTruth() {
	for _, sn := range c.nodes {
		if sn.Alive() {
			c.Truth.Update(sn.Node.Self())
		}
	}
}

// Run advances virtual time by d.
func (c *Cluster) Run(d des.Time) {
	c.Engine.Run(c.Engine.Now() + d)
	c.SyncTruth()
	if invariant.Enabled {
		c.checkPool()
	}
}

// checkPool runs the pool's invariant checks against every node ever
// added, dead ones included: a dead node's peer list is empty, and the
// checks count every chunk and leaf it gave back on the free lists.
func (c *Cluster) checkPool() {
	nodes := make([]*core.Node, len(c.nodes))
	for i, sn := range c.nodes {
		nodes[i] = sn.Node
	}
	invariant.CheckPool(c.pool, nodes)
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

// ChunkPool implements core.ChunkPooler: every node of a cluster stores
// its peer list in the cluster's pool.
func (sn *SimNode) ChunkPool() *core.ChunkPool { return sn.c.pool }

// Send implements core.Env: account, maybe drop, and deliver after the
// topology latency.
func (sn *SimNode) Send(msg wire.Message) {
	c := sn.c
	c.MessagesSent++
	bits := uint64(msg.SizeBits())
	c.BitsSent += bits
	c.bitsByType[msg.Type] += bits
	c.SentByType[msg.Type]++
	var key uint64
	if c.keyed {
		key = sn.nextKey()
	}
	if c.cfg.LossRate > 0 && c.netRng.Float64() < c.cfg.LossRate {
		c.Dropped++
		c.droppedByType[msg.Type]++
		if c.cfg.Spans != nil {
			c.cfg.Spans.RecordSpan(trace.DropSpan(c.Engine.Now(), &msg))
		}
		return
	}
	dst := c.local(msg.To)
	if dst == nil {
		if c.route != nil && c.route(sn, msg, key) {
			return
		}
		// A send into the void — a stale pointer naming an address the
		// cluster never assigned, or a harness bug. The message vanishes
		// (the protocol's acks handle it like loss), but the count makes
		// it visible instead of silently absorbed.
		c.unknownDest++
		return
	}
	c.deliverAt(c.Engine.Now()+c.latency(sn, dst), key, dst, msg)
}

// local returns the node at addr in this cluster, or nil.
func (c *Cluster) local(addr wire.Addr) *SimNode {
	if uint64(addr) < uint64(len(c.byAddr)) {
		return c.byAddr[addr]
	}
	return nil
}

// delivery is one message in flight: the engine event (a des.Action)
// that hands msg to dst. Records are pooled per Cluster. One is live from
// deliverAt until it fires, or until a chooser drops its event (Drop),
// and only then returns to the pool, so the engine never holds a
// recycled record.
type delivery struct {
	dst *SimNode
	msg wire.Message
	// next links the record into the free list while released.
	next *delivery
}

// Link implements freelist.Linked.
func (d *delivery) Link() **delivery { return &d.next }

// Fire implements des.Action: hand the message to its destination (a
// stopped node ignores it) and return the record to the pool.
func (d *delivery) Fire() {
	c := d.dst.c
	d.dst.Node.HandleMessage(d.msg)
	if invariant.Enabled {
		invariant.Check(d.dst.Node)
	}
	c.releaseDelivery(d)
}

// Drop is called by the engine when a chooser discards the delivery (the
// model checker's network-loss branch): the message gets the same
// SpanDrop a random network loss would, and the record goes back to the
// pool, since its event will never fire.
func (d *delivery) Drop() {
	c := d.dst.c
	if c.cfg.Spans != nil {
		c.cfg.Spans.RecordSpan(trace.DropSpan(c.Engine.Now(), &d.msg))
	}
	c.releaseDelivery(d)
}

// releaseDelivery returns a fired or dropped record to the pool.
//
//pwlint:noalloc
func (c *Cluster) releaseDelivery(d *delivery) {
	d.dst = nil
	d.msg.Pointers = nil // a peer-list download must not outlive its delivery
	c.deliveries.Put(d)
}

// deliverAt schedules the delivery of msg to the local node dst at the
// absolute time at.
func (c *Cluster) deliverAt(at des.Time, key uint64, dst *SimNode, msg wire.Message) {
	d := c.deliveries.Get()
	d.dst, d.msg = dst, msg
	c.Engine.Schedule(at, key, des.EventTag{Owner: uint64(msg.To), Kind: TagDeliver}, d)
}

// timerFire is a pending timer: the engine handle and the node's
// callback. It is both the des.Action the engine fires and the
// core.Timer that SetTimer returns. Records are pooled per
// Cluster; one is live from SetTimer until it fires or is cancelled, and
// is then reused by a later SetTimer, which the core.Timer contract
// allows: a node never cancels a fired or cancelled handle. Under the
// pwinvariants build tag records are never reused, a Cancel on a spent
// one panics, and so does a timer firing for a stopped node (whose Stop
// cancels every timer it armed), so a test run checks both contracts.
type timerFire struct {
	sn *SimNode
	fn func()
	h  des.Handle
	// next links the record into the free list while released.
	next *timerFire
}

// Link implements freelist.Linked.
func (f *timerFire) Link() **timerFire { return &f.next }

// Cancel implements core.Timer.
func (f *timerFire) Cancel() bool {
	if invariant.Enabled && f.sn == nil {
		panic("sim: Cancel on a fired or cancelled timer")
	}
	if !f.h.Cancel() {
		return false
	}
	f.sn.c.releaseTimerFire(f)
	return true
}

// Fire implements des.Action: run the node's callback. The record goes
// back to the pool first, so a callback that re-arms its timer (most do)
// reuses it instead of growing the pool.
func (f *timerFire) Fire() {
	sn, fn := f.sn, f.fn
	sn.c.releaseTimerFire(f)
	if invariant.Enabled && sn.Node.Stopped() {
		panic("sim: a timer fired for a stopped node")
	}
	fn()
	if invariant.Enabled {
		invariant.Check(sn.Node)
	}
}

// releaseTimerFire returns a fired or cancelled record to the pool (under
// pwinvariants it only marks the record spent, so each record serves one
// timer).
//
//pwlint:noalloc
func (c *Cluster) releaseTimerFire(f *timerFire) {
	f.sn, f.fn = nil, nil
	if !invariant.Enabled {
		c.timers.Put(f)
	}
}

// SetTimer implements core.Env.
//
//pwlint:noalloc
func (sn *SimNode) SetTimer(delay des.Time, fn func()) core.Timer {
	c := sn.c
	var key uint64
	if c.keyed {
		key = sn.nextKey()
	}
	f := c.timers.Get()
	f.sn, f.fn = sn, fn
	f.h = c.Engine.Schedule(c.Engine.Now()+delay, key, des.EventTag{Owner: uint64(sn.Addr), Kind: TagTimer}, f)
	return f
}
