package core

import (
	"fmt"
	"sort"

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

	// crossTop holds, for top nodes in split systems, pointers to top
	// nodes of other parts, keyed by the part's identifying eigenstring
	// (§4.4).
	crossTop map[nodeid.Eigenstring][]wire.Pointer

	// seq numbers this node's own announcements; seen dedups incoming
	// events per subject. dead records subjects whose leave we have
	// already applied or reported, so that tripping over their residue
	// (a failed multicast target, a probe timeout) does not spawn a
	// fresh leave announcement — without it every encounter would invent
	// a higher sequence number and re-trigger a full multicast.
	seq  uint64
	seen map[nodeid.ID]uint64
	dead map[nodeid.ID]bool

	// pending tracks reliable sends awaiting acks; sendPool holds released
	// records for reuse, so the per-message send path allocates nothing
	// once warm.
	nextAckID uint64
	pending   map[uint64]*pendingSend
	sendPool  []*pendingSend

	// The deadline queues (deadline.go): acks holds the ack id of every
	// attempt awaiting its AckTimeout, hops the delivered events waiting
	// out ForwardDelay, and defends the self-defense re-announcements
	// (applyEvent) waiting out AckTimeout. Each arms one Env timer.
	acks    deadlineQueue[uint64]
	hops    deadlineQueue[forwardHop]
	defends deadlineQueue[struct{}]

	// Probing state (§4.1). probeStart is when the current round's first
	// heartbeat went out — the zero point of the detection-latency
	// histogram.
	probeTimer    Timer
	probeAckID    uint64
	probeAttempts int
	probeWait     Timer
	probeStart    des.Time

	// Bandwidth meters: in drives level shifting; out is reported for
	// figure 8.
	inMeter  *metrics.Meter
	outMeter *metrics.Meter

	// lifetimes aggregates observed peer lifetimes per level — the LT_i
	// of §4.6.
	lifetimes   metrics.PerLevel
	lastRefresh des.Time

	// m is the node's instrument registry (see metrics.go).
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

	shiftTimer     Timer
	refreshTimer   Timer
	warmUpTimer    Timer
	reconcileTimer Timer

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
		seen:       make(map[nodeid.ID]uint64),
		dead:       make(map[nodeid.ID]bool),
		pending:    make(map[uint64]*pendingSend),
		inMeter:    metrics.NewMeter(cfg.MeterWindow),
		outMeter:   metrics.NewMeter(cfg.MeterWindow),
		m:          newNodeMetrics(),
		warmTarget: -1,
	}
	n.acks.init(env, n.onAckTimeout, n.awaited)
	n.hops.init(env, n.forwardDue, nil)
	n.defends.init(env, n.defendSelf, nil)
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
// always exactly the current list. Call from the node's executor only.
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
	for _, t := range []Timer{n.probeTimer, n.probeWait, n.shiftTimer, n.refreshTimer, n.warmUpTimer, n.reconcileTimer} {
		if t != nil {
			t.Cancel()
		}
	}
	n.acks.stop()
	n.hops.stop()
	n.defends.stop()
	n.pending = make(map[uint64]*pendingSend)
}

// Stopped reports whether the node has been stopped.
func (n *Node) Stopped() bool { return n.stopped }

// startTimers arms the periodic machinery once the node is joined.
func (n *Node) startTimers() {
	n.lastShift = n.env.Now()
	n.scheduleProbe()
	n.shiftTimer = n.env.SetTimer(n.cfg.ShiftCheckInterval, n.onShiftCheck)
	if n.cfg.RefreshEnabled {
		n.lastRefresh = n.env.Now()
		n.refreshTimer = n.env.SetTimer(n.cfg.RefreshFloor, n.onRefreshTick)
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
	out := ps[:0]
	for _, p := range ps {
		if p.ID != m.Sender.ID {
			out = append(out, p)
		}
	}
	n.send(wire.Message{Type: wire.MsgPeerListResp, To: m.From, AckID: m.AckID, Pointers: out})
}

// handleTopListReq serves top-node discovery. PartBits == 0 asks for the
// responder's own part; a top node answers with its part's top nodes, a
// regular node with its top-node list. PartBits > 0 asks a top node for
// another part's tops (§4.4).
func (n *Node) handleTopListReq(m wire.Message) {
	var ps []wire.Pointer
	if m.PartBits == 0 {
		if n.isTopNode() {
			ps = n.partTopNodes()
		} else {
			ps = append(ps, n.topList...)
		}
	} else {
		part, err := nodeid.FromBytes(m.PartPrefix[:])
		if err == nil {
			want := nodeid.EigenstringOf(part, int(m.PartBits))
			if want.Contains(n.self.ID) {
				// The requester asked for our own part after all.
				if n.isTopNode() {
					ps = n.partTopNodes()
				} else {
					ps = append(ps, n.topList...)
				}
			} else {
				ps = append(ps, n.crossTop[want]...)
			}
		}
	}
	if len(ps) > n.cfg.TopListSize {
		ps = ps[:n.cfg.TopListSize]
	}
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

// partTopNodes returns pointers to top nodes of this node's part: itself
// plus a random sample of same-eigenstring peers at its level (they are
// fully connected through their peer lists, §2 property 5). The sample is
// random so that the report and join load spreads across all top nodes
// rather than piling onto a deterministic few.
func (n *Node) partTopNodes() []wire.Pointer {
	out := []wire.Pointer{n.self}
	rng := n.env.Rand()
	seen := 0
	for _, p := range n.peers.InPrefix(n.eigen) {
		if int(p.Level) != int(n.self.Level) {
			continue
		}
		seen++
		if len(out) < n.cfg.TopListSize {
			out = append(out, p)
		} else if j := rng.Intn(seen); j < n.cfg.TopListSize-1 {
			// Reservoir-sample to keep the selection uniform.
			out[1+j] = p
		}
	}
	return out
}

// mergeTopPointers folds piggybacked top-node pointers into the top-node
// list (§4.5 lazy maintenance), most-recent first, capped at t.
func (n *Node) mergeTopPointers(ps []wire.Pointer) {
	if len(ps) == 0 {
		return
	}
	merged := make([]wire.Pointer, 0, n.cfg.TopListSize)
	have := func(id nodeid.ID) bool {
		for _, q := range merged {
			if q.ID == id {
				return true
			}
		}
		return false
	}
	for _, p := range ps {
		if p.ID != n.self.ID && !have(p.ID) && len(merged) < n.cfg.TopListSize {
			merged = append(merged, p)
		}
	}
	for _, p := range n.topList {
		if p.ID != n.self.ID && !have(p.ID) && len(merged) < n.cfg.TopListSize {
			merged = append(merged, p)
		}
	}
	n.topList = merged
}

// applyPointers folds a downloaded pointer batch — a peer-list reply
// from join step 3, level raising, reconcile, or a Restore snapshot —
// into the peer list through the bulk-merge path: filter (never hold our
// own pointer or one outside our responsibility region), sort, and
// MergeSorted in one O(N+M) pass instead of M O(N) Upserts. It returns
// the number of pointers added.
func (n *Node) applyPointers(ps []wire.Pointer) int {
	if len(ps) == 0 {
		return 0
	}
	batch := make([]wire.Pointer, 0, len(ps))
	for _, p := range ps {
		if p.ID != n.self.ID && n.eigen.Contains(p.ID) {
			batch = append(batch, p)
		}
	}
	if len(batch) == 0 {
		return 0
	}
	// Stable sort so a (malformed) batch repeating an ID keeps its last
	// occurrence winning, as repeated Upsert would; MergeSorted detects
	// the duplicate and falls back to exactly that.
	sort.SliceStable(batch, func(i, j int) bool { return batch[i].ID.Less(batch[j].ID) })
	var onNew func(wire.Pointer)
	var onUpdate func(old, new wire.Pointer)
	if n.deltas != nil {
		onNew, onUpdate = n.deltas.PeerAdded, n.deltas.PeerUpdated
	}
	added := n.peers.MergeSorted(batch, n.env.Now(), onNew, onUpdate)
	n.m.peersAdded.Add(uint64(added))
	return added
}

// defendSelf re-announces the node AckTimeout after it heard its own
// leave (see applyEvent).
func (n *Node) defendSelf(struct{}) {
	if n.joined && !n.stopped {
		n.announce(wire.EventRefresh)
	}
}

// pruneDedup bounds the seen/dead bookkeeping: entries for subjects that
// are no longer in the peer list are only needed to dedup in-flight
// retries, so once the maps grow well past the list size the stale
// entries are dropped. The cost of an over-eager prune is one duplicate
// multicast hop; the cost of never pruning is unbounded memory on a
// long-lived node.
func (n *Node) pruneDedup() {
	limit := 4*n.peers.Len() + 1024
	if len(n.seen) <= limit {
		return
	}
	for id := range n.seen {
		if _, held := n.peers.Lookup(id); !held {
			delete(n.seen, id)
			delete(n.dead, id)
		}
	}
}

// applyEvent folds a state-changing event into the peer list. The return
// value says whether the event was fresh — only fresh events are
// forwarded down the multicast tree, so this is also the dedup point.
//
// Leave events get special treatment: a failure detector that learned the
// victim from a peer-list download (not from an event) cannot know the
// victim's announcement sequence, so its leave report may carry a low
// Seq. A leave therefore applies whenever the subject is still in the
// list, falling back to sequence comparison only for repeats.
func (n *Node) applyEvent(ev wire.Event) bool {
	subj := ev.Subject
	last := n.seen[subj.ID]
	if subj.ID == n.self.ID {
		// Our own announcement travelling the tree: we are an audience
		// member like any other and must forward it, but there is
		// nothing to apply.
		if ev.Seq <= last {
			return false
		}
		n.seen[subj.ID] = ev.Seq
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
		n.dead[subj.ID] = true
		e, removed := n.removePeer(subj.ID, RemoveLeave)
		if removed {
			n.lifetimes.Add(int(e.ptr.Level), float64(n.env.Now()-e.firstSeen))
		}
		if !removed && ev.Seq <= last {
			return false
		}
		if ev.Seq > last {
			n.seen[subj.ID] = ev.Seq
		}
		return true
	default:
		if ev.Seq <= last {
			return false
		}
		n.seen[subj.ID] = ev.Seq
		delete(n.dead, subj.ID)
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
