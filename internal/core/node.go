package core

import (
	"fmt"
	"slices"

	"peerwindow/internal/des"
	"peerwindow/internal/metrics"
	"peerwindow/internal/nodeid"
	"peerwindow/internal/trace"
	"peerwindow/internal/wire"
)

// Node is one PeerWindow participant. It is a pure state machine: all
// activity happens inside HandleMessage, timer callbacks, and the public
// lifecycle methods, which the Env implementation must serialize.
type Node struct {
	cfg Config
	env Env

	self  wire.Pointer
	eigen nodeid.Eigenstring

	peers   PeerList
	topList []wire.Pointer

	// crossTop is the part table: for top nodes in split systems, one
	// row per other part with pointers to its top nodes (§4.4), ordered
	// by the part's eigenstring (see findPart).
	crossTop []crossPart

	// seq numbers this node's own announcements; dedup holds one record
	// per subject (see dedupRec).
	seq   uint64
	dedup dedupTable

	// pending holds the reliable sends awaiting acks; pool is where their
	// records and the ring's slot arrays come from and return to, so the
	// per-message send path allocates nothing once warm.
	nextAckID uint64
	pending   pendingRing
	pool      *ChunkPool

	// The deadline queues (deadline.go): acks holds the ack id of every
	// attempt awaiting its AckTimeout, hops the delivered events waiting
	// out ForwardDelay, defends the self-defense re-announcements
	// (applyEvent) waiting out AckTimeout, and probeWaits the heartbeats
	// waiting out ProbeTimeout. Each arms one Env timer, and draws its
	// segments from the node's pool.
	acks       deadlineQueue[uint64]
	hops       deadlineQueue[forwardHop]
	defends    deadlineQueue[struct{}]
	probeWaits deadlineQueue[probeWait]

	// Probing state (§4.1). probeTimer is the periodic round; probeAckID
	// is the ack id of the newest heartbeat, 0 once it is answered or has
	// timed out. probeStart is when the current round's first heartbeat
	// went out — the zero point of the detection-latency histogram.
	probeTimer    timerSlot
	probeAckID    uint64
	probeAttempts int
	probeStart    des.Time

	// Bandwidth meters: in drives level shifting; out is reported for
	// figure 8.
	inMeter  metrics.Meter
	outMeter metrics.Meter

	// lifetimes aggregates observed peer lifetimes per level — the LT_i
	// of §4.6.
	lifetimes   metrics.PerLevel
	lastRefresh des.Time

	// m is the node's instruments (see metrics.go).
	m nodeMetrics

	// spans, when set, receives tree spans of traced events and every
	// protocol moment; traceSeq numbers the trace IDs this node stamps
	// (see span.go).
	spans    trace.SpanSink
	traceSeq uint64

	// deltas, when set, receives every peer-list mutation (see
	// DeltaSink). Checked on each mutation path; nil keeps those paths
	// free of any extra work.
	deltas DeltaSink

	// The other single timers (deadline.go): the §2 shift check, the §4.6
	// refresh tick, the §4.3 warm-up step and the §4.3 reconcile pass.
	shiftTimer     timerSlot
	refreshTimer   timerSlot
	warmUpTimer    timerSlot
	reconcileTimer timerSlot

	// lastShift is when the node last changed level (or joined); level
	// checks are suppressed for one MeterWindow afterwards so the meter
	// reflects the new level before the next decision — without this, a
	// node can spiral several levels in one burst.
	lastShift des.Time

	joined  bool
	stopped bool

	// joinedAt is when joinStep4 completed (zero for Bootstrap/Restore).
	// The reconcile pass uses it to tell join-snapshot leftovers from
	// pointers learned live through events (see reconcile).
	joinedAt des.Time
	// joinTop is the top node that served our join snapshot and applied
	// our join event — the node whose list bounds our join window. The
	// reconcile pass pulls from it first: an arbitrary equal-level peer
	// may itself be a younger joiner whose own window is still open.
	joinTop wire.Pointer

	// warmTarget, when >= 0, is the level the node is still warming up
	// toward (§4.3 warm-up); -1 otherwise.
	warmTarget int
}

// NewNode builds a node that is not yet part of any overlay; call
// Bootstrap or Join next. self.Level is ignored (the join process decides
// the level); self.Addr and self.ID must be set and unique.
func NewNode(cfg Config, env Env, _ Observer, self wire.Pointer) *Node {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if env == nil {
		panic("core: nil Env")
	}
	if self.Addr == wire.NilAddr {
		panic("core: node needs a non-nil address")
	}
	n := &Node{
		cfg:        cfg,
		env:        env,
		self:       self,
		inMeter:    metrics.NewMeter(cfg.MeterWindow),
		outMeter:   metrics.NewMeter(cfg.MeterWindow),
		warmTarget: -1,
	}
	n.m.init()
	var pool *ChunkPool
	if cp, ok := env.(ChunkPooler); ok {
		pool = cp.ChunkPool()
	} else {
		pool = &ChunkPool{oneNode: true}
	}
	n.peers.pool, n.pool = pool, pool
	n.acks.init(n, &pool.ackSegs, (*Node).onAckTimeout, (*Node).awaited)
	n.hops.init(n, &pool.hopSegs, (*Node).forwardDue, nil)
	n.defends.init(n, &pool.defendSegs, (*Node).defendSelf, nil)
	n.probeWaits.init(n, &pool.waitSegs, (*Node).onProbeTimeout, (*Node).probeAwaited)
	n.probeTimer.init(n, (*Node).probeRound)
	n.shiftTimer.init(n, (*Node).onShiftCheck)
	n.refreshTimer.init(n, (*Node).onRefreshTick)
	n.warmUpTimer.init(n, (*Node).warmUpStep)
	n.reconcileTimer.init(n, (*Node).reconcile)
	n.setLevel(0)
	return n
}

// Self returns the node's current pointer (address, ID, level, info).
func (n *Node) Self() wire.Pointer { return n.self }

// Level returns the node's current level.
func (n *Node) Level() int { return int(n.self.Level) }

// Eigenstring returns the node's current eigenstring.
func (n *Node) Eigenstring() nodeid.Eigenstring { return n.eigen }

// Joined reports whether the node has completed joining.
func (n *Node) Joined() bool { return n.joined }

// Peers exposes the peer list for reading. Callers must not mutate it.
func (n *Node) Peers() *PeerList { return &n.peers }

// SetDeltas attaches a peer-list mutation sink. If the list already holds
// entries (attach after Bootstrap/Restore), they are replayed to the sink
// as PeerAdded calls first, so a sink folding the stream from empty is
// always exactly the current list. Call it serialized with the node's
// other calls.
func (n *Node) SetDeltas(sink DeltaSink) {
	n.deltas = sink
	if sink == nil {
		return
	}
	n.peers.ForEach(func(p wire.Pointer, _, _ des.Time) {
		sink.PeerAdded(p)
	})
}

// upsertPeer is the one writer of single pointers into the peer list
// (applyPointers is the bulk path): it inserts or refreshes p, counts an
// insertion in peers.added, and tells the delta sink of an insertion or
// of an update that changed the stored pointer.
func (n *Node) upsertPeer(p wire.Pointer) {
	var prev wire.Pointer
	if n.deltas != nil {
		prev, _ = n.peers.Lookup(p.ID)
	}
	if n.peers.Upsert(p, n.env.Now()) {
		n.m.peersAdded.Inc()
		if n.deltas != nil {
			n.deltas.PeerAdded(p)
		}
	} else if n.deltas != nil && !prev.Equal(p) {
		n.deltas.PeerUpdated(prev, p)
	}
}

// removePeer is the one remover of single pointers: it drops id, if held,
// and reports the eviction (see evicted).
func (n *Node) removePeer(id nodeid.ID, reason RemoveReason) (removedPeer, bool) {
	e, ok := n.peers.Remove(id)
	if ok {
		n.evicted(e.ptr, reason)
	}
	return e, ok
}

// evicted accounts for a pointer that has left the peer list: it bumps
// peers.removed.<reason> and tells the delta sink.
func (n *Node) evicted(p wire.Pointer, reason RemoveReason) {
	n.m.removed(reason)
	if n.deltas != nil {
		n.deltas.PeerRemoved(p, reason)
	}
}

// TopList returns a copy of the node's top-node list.
func (n *Node) TopList() []wire.Pointer {
	return append([]wire.Pointer(nil), n.topList...)
}

// InputRate returns the node's measured input bandwidth cost in bit/s.
func (n *Node) InputRate() float64 { return n.inMeter.Rate(n.env.Now()) }

// OutputRate returns the node's measured output bandwidth cost in bit/s.
func (n *Node) OutputRate() float64 { return n.outMeter.Rate(n.env.Now()) }

// LifetimeStats exposes the per-level observed-lifetime aggregates
// (§4.6's LT_i).
func (n *Node) LifetimeStats() *metrics.PerLevel { return &n.lifetimes }

// Threshold returns the node's self-set bandwidth budget W in bit/s.
func (n *Node) Threshold() float64 { return n.cfg.ThresholdBits }

// SetThreshold adjusts the node's self-set bandwidth budget W at runtime
// — the autonomy knob of §2.
func (n *Node) SetThreshold(w float64) {
	if w <= 0 {
		panic("core: non-positive threshold")
	}
	n.cfg.ThresholdBits = w
}

// setLevel updates the node's level and derived eigenstring.
func (n *Node) setLevel(l int) {
	n.self.Level = uint8(l)
	n.eigen = nodeid.EigenstringOf(n.self.ID, l)
}

// maintenanceTraffic reports whether a message type counts toward the
// node-collection bandwidth cost the paper's threshold governs (event
// dissemination, acks, heartbeats, reports). Service traffic — join
// queries and peer-list/top-list downloads — is one-off transfer, not
// maintenance, and §5.1's "input bandwidth threshold" does not cover it.
func maintenanceTraffic(t wire.MsgType) bool {
	switch t {
	case wire.MsgEvent, wire.MsgAck, wire.MsgHeartbeat, wire.MsgHeartbeatAck,
		wire.MsgReport, wire.MsgReportAck:
		return true
	default:
		return false
	}
}

// send transmits msg and charges the output meter.
func (n *Node) send(msg wire.Message) {
	msg.From = n.self.Addr
	if maintenanceTraffic(msg.Type) {
		n.outMeter.Add(n.env.Now(), float64(msg.SizeBits()))
	}
	n.env.Send(msg)
}

// Bootstrap makes this node the first member of a fresh overlay: level 0,
// immediately joined, timers running.
func (n *Node) Bootstrap() {
	if n.joined || n.stopped {
		panic("core: Bootstrap on a joined or stopped node")
	}
	n.setLevel(0)
	n.joined = true
	n.startTimers()
}

// Restore bulk-loads a node with a known-good state and brings it online
// without running the joining process: level, peer list and top-node list
// are installed directly and the periodic machinery starts. The
// experiment harness uses it to warm-start large converged populations;
// it is equivalent to a join whose multicast and downloads have fully
// completed.
func (n *Node) Restore(level int, peers, tops []wire.Pointer) {
	if n.joined || n.stopped {
		panic("core: Restore on a joined or stopped node")
	}
	if level < 0 || level > n.cfg.MaxLevel {
		panic(fmt.Sprintf("core: Restore level %d out of range", level))
	}
	n.setLevel(level)
	n.applyPointers(peers)
	n.mergeTopPointers(tops)
	if s := uint64(n.env.Now()); s > n.seq {
		n.seq = s
	}
	n.joined = true
	n.startTimers()
}

// Snapshot captures the node's durable state — level, peer list and
// top-node list — in a form Restore accepts, so an embedding application
// can persist it across restarts and come back without re-running the
// full joining download. The snapshot ages like any peer list: restore
// promptly or rejoin instead.
func (n *Node) Snapshot() (level int, peers, tops []wire.Pointer) {
	return n.Level(), n.peers.Pointers(), n.TopList()
}

// Leave announces a voluntary departure to the audience set and stops the
// node. A leaving top node hands the event to another top node instead of
// originating the multicast itself: Stop cancels all pending retry
// timers, so a self-originated multicast loses its per-hop reliability
// and a single dropped hop would orphan a whole subtree with a stale
// pointer — one that ring probing can no longer reach (the survivors that
// applied the leave have already routed around us, so the corpse is
// nobody's successor). A surviving originator keeps retrying.
func (n *Node) Leave() {
	if !n.joined || n.stopped {
		n.Stop()
		return
	}
	n.seq++
	ev := wire.Event{Kind: wire.EventLeave, Subject: n.self, Seq: n.seq}
	tid := n.newTrace()
	if tops := n.shuffledTops(); n.isTopNode() && len(tops) > 0 {
		n.reportVia(ev, tid, tops, false)
	} else {
		n.report(ev, tid)
	}
	n.Stop()
}

// Stop halts all timers and message processing without any announcement —
// a crash. The ring probing of some neighbour (§4.1) will eventually
// detect it. Every timer the node armed is cancelled, so a live host's
// clock holds no reference to the stopped node.
func (n *Node) Stop() {
	if n.stopped {
		return
	}
	n.stopped = true
	n.joined = false
	for _, t := range []*timerSlot{&n.probeTimer, &n.shiftTimer, &n.refreshTimer, &n.warmUpTimer, &n.reconcileTimer} {
		t.cancel()
	}
	n.acks.stop()
	n.hops.stop()
	n.defends.stop()
	n.probeWaits.stop()
	// Nothing reads the ring of a stopped node but the checks and the
	// digest, which find it empty, so its slot array goes back to the
	// pool.
	for _, p := range n.pending.slots {
		if p != nil {
			n.releaseSend(p)
		}
	}
	if n.pending.slots != nil {
		n.pool.putRing(n.pending.slots)
	}
	n.pending = pendingRing{}
	// Nothing reads the dedup records of a stopped node either.
	n.dedup = dedupTable{}
}

// Stopped reports whether the node has been stopped.
func (n *Node) Stopped() bool { return n.stopped }

// startTimers arms the periodic machinery once the node is joined.
func (n *Node) startTimers() {
	n.lastShift = n.env.Now()
	n.scheduleProbe()
	n.shiftTimer.arm(n.cfg.ShiftCheckInterval)
	if n.cfg.RefreshEnabled {
		n.lastRefresh = n.env.Now()
		n.refreshTimer.arm(n.cfg.RefreshFloor)
	}
}

// SetInfo replaces the node's attached info and announces the change to
// its audience set (§3).
func (n *Node) SetInfo(info []byte) {
	if len(info) > wire.MaxInfoLen {
		panic(fmt.Sprintf("core: info %d bytes exceeds %d", len(info), wire.MaxInfoLen))
	}
	n.self.Info = append([]byte(nil), info...)
	if !n.joined {
		return
	}
	n.seq++
	n.report(wire.Event{Kind: wire.EventInfoChange, Subject: n.self, Seq: n.seq}, n.newTrace())
}

// HandleMessage processes one incoming message. The Env must call it
// serially with timer callbacks.
func (n *Node) HandleMessage(m wire.Message) {
	if n.stopped {
		return
	}
	if maintenanceTraffic(m.Type) {
		n.inMeter.Add(n.env.Now(), float64(m.SizeBits()))
	}
	switch m.Type {
	case wire.MsgEvent:
		n.handleEvent(m)
	case wire.MsgAck:
		n.resolveAck(m.AckID, m)
	case wire.MsgHeartbeat:
		n.send(wire.Message{Type: wire.MsgHeartbeatAck, To: m.From, AckID: m.AckID})
	case wire.MsgHeartbeatAck:
		// Ring-probe acks match probeAckID; verification probes (sent
		// through the reliable machinery) resolve like any other ack.
		if m.AckID == n.probeAckID {
			n.handleProbeAck(m.AckID)
		} else {
			n.resolveAck(m.AckID, m)
		}
	case wire.MsgReport:
		n.handleReport(m)
	case wire.MsgReportAck:
		n.mergeTopPointers(m.Pointers)
		n.resolveAck(m.AckID, m)
	case wire.MsgJoinQuery:
		n.send(wire.Message{
			Type:   wire.MsgJoinInfo,
			To:     m.From,
			AckID:  m.AckID,
			Cost:   uint64(n.InputRate()),
			Sender: n.self,
		})
		// Working for a join is the §4.5 trigger to lazily refresh one
		// cross-part top list.
		n.refreshCrossTop()
	case wire.MsgJoinInfo:
		n.resolveAck(m.AckID, m)
	case wire.MsgPeerListReq:
		n.handlePeerListReq(m)
	case wire.MsgPeerListResp:
		n.resolveAck(m.AckID, m)
	case wire.MsgTopListReq:
		n.handleTopListReq(m)
	case wire.MsgTopListResp:
		n.resolveAck(m.AckID, m)
	}
}

// handlePeerListReq serves join step 3 and level raising: return every
// pointer matching the requester's eigenstring, plus ourselves if we
// match.
func (n *Node) handlePeerListReq(m wire.Message) {
	req := nodeid.EigenstringOf(m.Sender.ID, int(m.Sender.Level))
	ps := n.peers.InPrefix(req)
	if req.Contains(n.self.ID) {
		ps = append(ps, n.self)
	}
	// Exclude the requester itself; it does not need its own pointer.
	n.send(wire.Message{Type: wire.MsgPeerListResp, To: m.From, AckID: m.AckID, Pointers: dropID(ps, m.Sender.ID)})
}

// handleTopListReq serves top-node discovery. PartBits == 0 asks for the
// responder's own part; a top node answers with its part's top nodes, a
// regular node with its top-node list. PartBits > 0 asks a top node for
// another part's tops (§4.4).
func (n *Node) handleTopListReq(m wire.Message) {
	var ps []wire.Pointer
	if m.PartBits == 0 {
		ps = n.ownPartTops()
	} else if part, err := nodeid.FromBytes(m.PartPrefix[:]); err == nil {
		if want := nodeid.EigenstringOf(part, int(m.PartBits)); want.Contains(n.self.ID) {
			// The requester asked for our own part after all.
			ps = n.ownPartTops()
		} else {
			ps = n.CrossPartTops(want)
		}
	}
	ps = ps[:min(len(ps), n.cfg.TopListSize)]
	n.send(wire.Message{Type: wire.MsgTopListResp, To: m.From, AckID: m.AckID, Pointers: ps})
}

// isTopNode reports whether this node believes it is a top node of its
// part: it knows no stronger node (§4.4: "the highest-level nodes in each
// part are called top nodes"). Level 0 is always top.
func (n *Node) isTopNode() bool {
	if n.self.Level == 0 {
		return true
	}
	min := n.peers.MinLevel()
	return min == -1 || min >= int(n.self.Level)
}

// ownPartTops answers a request for this node's own part: a top node
// samples its part's top nodes, any other node copies its top-node list.
func (n *Node) ownPartTops() []wire.Pointer {
	if n.isTopNode() {
		return n.partTopNodes()
	}
	return append([]wire.Pointer(nil), n.topList...)
}

// partTopNodes returns pointers to top nodes of this node's part: itself
// plus a random sample of same-eigenstring peers at its level (they are
// fully connected through their peer lists, §2 property 5). The sample is
// random so that the report and join load spreads across all top nodes
// rather than piling onto a deterministic few.
//
// The sample is drawn by walking the prefix range in place: only the
// entries at the node's own level become pointers.
func (n *Node) partTopNodes() []wire.Pointer {
	out := make([]wire.Pointer, 1, n.cfg.TopListSize)
	out[0] = n.self
	rng := n.env.Rand()
	seen := 0
	lo, hi := n.peers.prefixRange(n.eigen)
	n.peers.walk(lo, hi, func(e *entry, _ *stamp) {
		if e.level != n.self.Level {
			return
		}
		seen++
		if len(out) < n.cfg.TopListSize {
			out = append(out, n.peers.pointer(e))
		} else if j := rng.Intn(seen); j < n.cfg.TopListSize-1 {
			// Reservoir-sample to keep the selection uniform.
			out[1+j] = n.peers.pointer(e)
		}
	})
	return out
}

// mergeTopPointers folds piggybacked top-node pointers into the top-node
// list (§4.5 lazy maintenance), most-recent first, capped at t.
func (n *Node) mergeTopPointers(ps []wire.Pointer) {
	if len(ps) == 0 {
		return
	}
	merged := dropID(unionByID(ps, n.topList), n.self.ID)
	n.topList = merged[:min(len(merged), n.cfg.TopListSize)]
}

// unionByID returns a new slice holding fresh, then old, keeping only the
// first pointer of each ID. Both top lists, the node's own and the part
// table's rows, merge what they learn through it.
func unionByID(fresh, old []wire.Pointer) []wire.Pointer {
	out := make([]wire.Pointer, 0, len(fresh)+len(old))
	for _, src := range [2][]wire.Pointer{fresh, old} {
		for _, p := range src {
			if !slices.ContainsFunc(out, func(q wire.Pointer) bool { return q.ID == p.ID }) {
				out = append(out, p)
			}
		}
	}
	return out
}

// dropID removes every pointer to id from ps in place and returns the
// shortened slice.
func dropID(ps []wire.Pointer, id nodeid.ID) []wire.Pointer {
	return slices.DeleteFunc(ps, func(p wire.Pointer) bool { return p.ID == id })
}

// applyPointers folds a downloaded pointer batch — a peer-list reply
// from join step 3, level raising, reconcile, or a Restore snapshot —
// into the peer list through the bulk-merge path: filter (never hold our
// own pointer or one outside our responsibility region), sort, and
// MergeSorted, which builds an empty list in one pass and otherwise
// updates or inserts entry by entry. It returns the filtered batch,
// sorted by ID.
func (n *Node) applyPointers(ps []wire.Pointer) []wire.Pointer {
	if len(ps) == 0 {
		return nil
	}
	batch := make([]wire.Pointer, 0, len(ps))
	for _, p := range ps {
		if p.ID != n.self.ID && n.eigen.Contains(p.ID) {
			batch = append(batch, p)
		}
	}
	if len(batch) == 0 {
		return nil
	}
	// Stable sort so a (malformed) batch repeating an ID keeps its last
	// occurrence winning, as repeated Upsert would, which is what
	// MergeSorted does with it.
	slices.SortStableFunc(batch, func(a, b wire.Pointer) int { return a.ID.Compare(b.ID) })
	var onNew func(wire.Pointer)
	var onUpdate func(old, new wire.Pointer)
	if n.deltas != nil {
		onNew, onUpdate = n.deltas.PeerAdded, n.deltas.PeerUpdated
	}
	n.m.peersAdded.Add(uint64(n.peers.MergeSorted(batch, n.env.Now(), onNew, onUpdate)))
	return batch
}

// defendSelf re-announces the node AckTimeout after it heard its own
// leave (see applyEvent).
func (n *Node) defendSelf(struct{}) {
	if n.joined && !n.stopped {
		n.announce(wire.EventRefresh)
	}
}

// markDead records that id's leave is being reported and returns the
// sequence number the report carries — one past the newest applied —
// or false when the leave was already applied or reported.
func (n *Node) markDead(id nodeid.ID) (uint64, bool) {
	d := n.dedup.get(id)
	if d.dead {
		return 0, false
	}
	d.dead = true
	n.dedup.put(id, d)
	return d.seq + 1, true
}

// pruneDedup bounds the dedup bookkeeping: records of subjects that are
// no longer in the peer list are only needed to dedup in-flight retries,
// so once the sequenced records grow well past the list size the stale
// ones are dropped. A record without a sequence (a leave reported, never
// an event applied) is kept. The cost of an over-eager prune is one
// duplicate multicast hop; the cost of never pruning is unbounded memory
// on a long-lived node.
func (n *Node) pruneDedup() {
	if n.dedup.sequenced <= 4*n.peers.Len()+1024 {
		return
	}
	n.dedup.rebuild(len(n.dedup.slots), func(id nodeid.ID, d dedupRec) bool {
		_, held := n.peers.Lookup(id)
		return d.seq == 0 || held
	})
}

// applyEvent folds a state-changing event into the peer list. The return
// value says whether the event was fresh — only fresh events are
// forwarded down the multicast tree, so this is also the dedup point. It
// reads the subject's dedup record once and writes it at most once.
//
// Leave events get special treatment: a failure detector that learned the
// victim from a peer-list download (not from an event) cannot know the
// victim's announcement sequence, so its leave report may carry a low
// Seq. A leave therefore applies whenever the subject is still in the
// list, falling back to sequence comparison only for repeats.
func (n *Node) applyEvent(ev wire.Event) bool {
	subj := ev.Subject
	d := n.dedup.get(subj.ID)
	if subj.ID == n.self.ID {
		// Our own announcement travelling the tree: we are an audience
		// member like any other and must forward it, but there is
		// nothing to apply.
		if ev.Seq <= d.seq {
			return false
		}
		n.dedup.put(subj.ID, dedupRec{seq: ev.Seq, dead: d.dead})
		// Self-defense: if the system believes we left (a false failure
		// detection slipped past the probe retries), re-announce
		// ourselves so every window restores our pointer.
		if ev.Kind == wire.EventLeave && n.joined && !n.stopped {
			n.defends.push(n.cfg.AckTimeout, struct{}{})
		}
		return true
	}
	switch ev.Kind {
	case wire.EventLeave:
		r := dedupRec{seq: max(d.seq, ev.Seq), dead: true}
		if r != d {
			n.dedup.put(subj.ID, r)
		}
		e, removed := n.removePeer(subj.ID, RemoveLeave)
		if removed {
			n.lifetimes.Add(int(e.ptr.Level), float64(n.env.Now()-e.firstSeen))
		}
		return removed || ev.Seq > d.seq
	default:
		if ev.Seq <= d.seq {
			return false
		}
		n.dedup.put(subj.ID, dedupRec{seq: ev.Seq})
		// Only track subjects inside our responsibility region; events
		// can outrun a level shift, and forwarding must continue either
		// way.
		if !n.eigen.Contains(subj.ID) {
			return true
		}
		n.upsertPeer(subj)
		return true
	}
}
