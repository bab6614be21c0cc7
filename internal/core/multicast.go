package core

import (
	"peerwindow/internal/nodeid"
	"peerwindow/internal/trace"
	"peerwindow/internal/wire"
)

// This file implements the §4.2 tree-based multicast.
//
// The scheme (figure 4): when a node is informed of an event at step s,
// it repeatedly — for s' = s, s+1, s+2, … — picks from its peer list a
// member of the changing node's audience set whose nodeId shares the
// first s' bits of the local nodeId and differs at bit s', always
// preferring the highest-level (strongest) candidate, and forwards the
// event tagged with step s'+1. The process continues until no candidate
// exists at any remaining step. Because candidates at step s' share s'
// bits with the local node, a node at level l can only forward at steps
// s' >= l — which is exactly why messages flow from stronger to weaker
// nodes and why the root (a top node) has ~log2 N out-degree while leaf
// recipients have none.
//
// Every forward expects an ack; after RetryAttempts silent attempts the
// target's pointer is dropped as stale and the message is redirected to a
// fresh candidate for the same step (§4.2's "turn back to line (3)").

// handleEvent processes an incoming multicast step: ack it, apply it,
// and continue the tree.
func (n *Node) handleEvent(m wire.Message) {
	// Ack unconditionally — the sender only needs to know we are alive.
	n.send(wire.Message{Type: wire.MsgAck, To: m.From, AckID: m.AckID})
	n.span(m.Trace, trace.SpanReceive, m.From, 0, int(m.Step), m.Event)
	if !n.applyEvent(m.Event) {
		n.m.mcDuplicates.Inc()
		n.span(m.Trace, trace.SpanDuplicate, m.From, 0, int(m.Step), m.Event)
		return // duplicate; the tree below us was already covered
	}
	n.m.mcDelivered.Inc()
	n.m.mcStepDepth.Observe(float64(m.Step))
	n.span(m.Trace, trace.SpanDeliver, m.From, 0, int(m.Step), m.Event)
	// The paper charges each hop 1 s of processing before it re-sends
	// (§5.1); model that as a single delay before all forwards.
	if n.cfg.ForwardDelay > 0 {
		h := n.acquireHop()
		h.ev, h.step, h.tid = m.Event, int(m.Step), m.Trace
		n.env.SetTimer(n.cfg.ForwardDelay, h.fire)
	} else {
		n.forwardEvent(m.Event, int(m.Step), m.Trace)
	}
}

// forwardHop is one delivered event waiting out ForwardDelay before it is
// forwarded. Records are pooled per Node; one is released when its timer
// fires, and a hop whose timer never fires (the node stopped first) is
// simply left to the garbage collector.
type forwardHop struct {
	ev   wire.Event
	step int
	tid  wire.TraceID
	// fire is the timer callback, bound to this record once when it is
	// first created.
	fire func()
}

// acquireHop takes a record from the node's pool.
//
//pwlint:noalloc
func (n *Node) acquireHop() *forwardHop {
	if k := len(n.hopPool); k > 0 {
		h := n.hopPool[k-1]
		n.hopPool = n.hopPool[:k-1]
		return h
	}
	return n.newForwardHop() //pwlint:allow noalloc pool miss; steady state reuses released records
}

func (n *Node) newForwardHop() *forwardHop {
	h := &forwardHop{}
	h.fire = func() {
		ev, step, tid := h.ev, h.step, h.tid
		n.releaseHop(h)
		n.forwardEvent(ev, step, tid)
	}
	return h
}

// releaseHop returns a fired record to the pool.
//
//pwlint:noalloc
func (n *Node) releaseHop(h *forwardHop) {
	h.ev = wire.Event{} // drop the subject's info slice
	n.hopPool = append(n.hopPool, h)
}

// originateMulticast starts the tree at this node, which has just applied
// the event (top-node path, §2). A top node of a split part at level L
// starts at step L: no stronger nodes exist in its part. tid is the trace
// context the report carried; an unstamped report gets a fresh ID here
// (when a sink is attached) so the whole tree is attributable.
func (n *Node) originateMulticast(ev wire.Event, tid wire.TraceID) {
	n.m.mcOriginated.Inc()
	if tid.IsZero() {
		tid = n.newTrace()
	}
	n.span(tid, trace.SpanOrigin, 0, 0, int(n.self.Level), ev)
	n.forwardEvent(ev, int(n.self.Level), tid)
}

// forwardEvent continues the dissemination: the §4.2 tree by default,
// or the §2 level-gossip sketch when configured (the ablation variant).
func (n *Node) forwardEvent(ev wire.Event, fromStep int, tid wire.TraceID) {
	if n.stopped {
		return
	}
	if n.cfg.GossipMulticast {
		n.forwardEventGossip(ev, tid)
		return
	}
	for s := fromStep; s < nodeid.Bits; s++ {
		// If no peer shares the first s bits with us, none can share
		// more: the rest of the tree is empty.
		if n.peers.CountInPrefix(nodeid.EigenstringOf(n.self.ID, s)) == 0 {
			return
		}
		n.sendStep(ev, s, tid, nil)
	}
}

// forwardEventGossip implements the §2 alternative: on first receipt, a
// node pushes the event to GossipFanout random audience members at its
// own level (the intra-level gossip) and hands it to one audience member
// at each deeper level that exists (the downward step). Duplicates die
// at the receiver's dedup, which is what terminates the rumor. Expected
// cost is a redundancy factor of roughly the fanout over the tree's
// r = 1 — the trade the paper declines.
func (n *Node) forwardEventGossip(ev wire.Event, tid wire.TraceID) {
	subject := ev.Subject.ID
	// Downward handoff happens once, on first receipt: one member per
	// deeper level, if any.
	rng := n.env.Rand()
	for l := n.Level() + 1; l <= n.cfg.MaxLevel; l++ {
		l := l
		deeper := func(p wire.Pointer) bool {
			return int(p.Level) == l &&
				p.ID.Prefix(l) == subject.Prefix(l)
		}
		sub := nodeid.EigenstringOf(subject, minInt(l, nodeid.Bits))
		picks := n.peers.RandomInPrefix(sub, 1, deeper, nil, rng)
		if len(picks) == 1 {
			n.sendGossipCopy(ev, picks[0], tid)
		}
	}
	// Intra-level rumor mongering: GossipRounds rounds of GossipFanout
	// pushes, one ForwardDelay (or ack timeout) apart.
	n.gossipRound(ev, n.cfg.GossipRounds, tid)
}

// gossipRound pushes one round of intra-level copies and schedules the
// next.
func (n *Node) gossipRound(ev wire.Event, remaining int, tid wire.TraceID) {
	if n.stopped || remaining <= 0 {
		return
	}
	subject := ev.Subject.ID
	rng := n.env.Rand()
	sameLevel := func(p wire.Pointer) bool {
		return int(p.Level) == n.Level() &&
			p.ID.Prefix(int(p.Level)) == subject.Prefix(int(p.Level))
	}
	region := nodeid.EigenstringOf(subject, minInt(n.Level(), nodeid.Bits))
	for _, target := range n.peers.RandomInPrefix(region, n.cfg.GossipFanout, sameLevel, nil, rng) {
		n.sendGossipCopy(ev, target, tid)
	}
	gap := n.cfg.ForwardDelay
	if gap <= 0 {
		gap = n.cfg.AckTimeout
	}
	n.env.SetTimer(gap, func() { n.gossipRound(ev, remaining-1, tid) })
}

// sendGossipCopy transmits one gossip push; failures just drop the stale
// pointer (other copies provide the redundancy a tree lacks).
func (n *Node) sendGossipCopy(ev wire.Event, target wire.Pointer, tid wire.TraceID) {
	if target.ID == n.self.ID {
		return
	}
	msg := wire.Message{Type: wire.MsgEvent, To: target.Addr, Step: 0, Event: ev, Trace: tid}
	n.m.mcForwards.Inc()
	n.span(tid, trace.SpanForward, 0, target.Addr, 0, ev)
	n.sendTracked(msg, sendGossipCopy, target, nil)
}

// dropStale removes the pointer of a target that stayed silent through a
// whole attempt budget (§4.2). For a gossip push that is all a failure
// does: other copies provide the redundancy a tree lacks.
func (n *Node) dropStale(target wire.Pointer) {
	if e, had := n.peers.Remove(target.ID); had {
		n.m.removed(RemoveStale)
		n.deltaRemove(e.ptr, RemoveStale)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// sendStep picks the strongest candidate for step s (excluding already
// failed targets) and forwards the event reliably; on failure it drops
// the stale pointer and redirects.
func (n *Node) sendStep(ev wire.Event, s int, tid wire.TraceID, failed map[nodeid.ID]bool) {
	target, ok := n.peers.StrongestForStep(n.self.ID, s, ev.Subject.ID, failed, n.env.Rand())
	if !ok {
		return // no (remaining) candidate at this step
	}
	msg := wire.Message{
		Type:  wire.MsgEvent,
		To:    target.Addr,
		Step:  uint8(s + 1),
		Event: ev,
		Trace: tid,
	}
	n.m.mcForwards.Inc()
	n.span(tid, trace.SpanForward, 0, target.Addr, s+1, ev)
	n.sendTracked(msg, sendMulticastStep, target, failed)
}

// stepFailed is §4.2's "turn back to line (3)": no response after the
// attempt budget — remove the stale pointer and redirect to a new target
// for the same step.
func (n *Node) stepFailed(p *pendingSend) {
	ev, s, tid, target := p.msg.Event, int(p.msg.Step)-1, p.msg.Trace, p.target
	n.m.mcRedirects.Inc()
	n.span(tid, trace.SpanRedirect, 0, target.Addr, s+1, ev)
	n.dropStale(target)
	// Before announcing the death system-wide, verify it with an
	// independent probe round: under message loss, one failed send
	// chain alone produces enough false positives to flood the
	// overlay with bogus leave events (each one a full multicast,
	// whose extra sends produce more false positives in turn).
	if !(ev.Kind == wire.EventLeave && ev.Subject.ID == target.ID) {
		n.verifyFailure(target)
	}
	failed := p.failed
	if failed == nil {
		failed = make(map[nodeid.ID]bool)
	}
	failed[target.ID] = true
	n.sendStep(ev, s, tid, failed)
}

// verifyFailure double-checks a suspected death with a reliable
// heartbeat round and only then reports the leave (§4.1's detection with
// §4.2's evidence combined — six consecutive losses are needed for a
// false positive).
func (n *Node) verifyFailure(target wire.Pointer) {
	if n.dead[target.ID] {
		return
	}
	hb := wire.Message{Type: wire.MsgHeartbeat, To: target.Addr}
	n.sendTracked(hb, sendVerify, target, nil)
}

// verifyAnswered handles a suspect that answered its verification
// heartbeat: alive after all — the earlier send chain lost to the
// network, not to a death. Restore the pointer we dropped.
func (n *Node) verifyAnswered(target wire.Pointer) {
	n.m.failFalseAlarms.Inc()
	n.moment(trace.SpanFalseAlarm, target.Addr, 0)
	if !n.stopped && !n.dead[target.ID] && n.eigen.Contains(target.ID) {
		var prev wire.Pointer
		var had bool
		if n.deltas != nil {
			prev, had = n.peers.Lookup(target.ID)
		}
		if n.peers.Upsert(target, n.env.Now()) {
			n.m.peersAdded.Inc()
			n.deltaAdd(target)
		} else if had {
			n.deltaUpdate(prev, target)
		}
	}
}

// verifyFailed reports the leave of a suspect that stayed silent through
// the whole verification round.
func (n *Node) verifyFailed(target wire.Pointer) {
	if n.dead[target.ID] {
		return
	}
	n.dead[target.ID] = true
	n.m.failVerified.Inc()
	n.moment(trace.SpanVerifyDetect, target.Addr, 0)
	leave := wire.Event{
		Kind:    wire.EventLeave,
		Subject: target,
		Seq:     n.seen[target.ID] + 1,
	}
	n.report(leave, n.newTrace())
}
