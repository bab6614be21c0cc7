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
		n.hops.push(n.cfg.ForwardDelay, forwardHop{ev: m.Event, step: int(m.Step), tid: m.Trace})
	} else {
		n.forwardEvent(m.Event, int(m.Step), m.Trace)
	}
}

// forwardHop is one delivered event waiting out ForwardDelay in the hop
// queue before it is forwarded.
type forwardHop struct {
	ev   wire.Event
	step int
	tid  wire.TraceID
}

// forwardDue forwards a hop whose ForwardDelay has passed.
func (n *Node) forwardDue(h forwardHop) { n.forwardEvent(h.ev, h.step, h.tid) }

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

// forwardEvent continues the §4.2 tree from step fromStep. The peers
// sharing the first s bits of our ID form one ID range; bit s splits it
// into step s's candidates (bit s flipped) and step s+1's range, so each
// step costs one search.
func (n *Node) forwardEvent(ev wire.Event, fromStep int, tid wire.TraceID) {
	if fromStep >= nodeid.Bits {
		return
	}
	lo, hi := n.peers.prefixRange(nodeid.EigenstringOf(n.self.ID, fromStep))
	// If no peer shares the first s bits with us, none can share more:
	// the rest of the tree is empty.
	for s := fromStep; s < nodeid.Bits && lo < hi; s++ {
		var candLo, candHi int
		candLo, candHi, lo, hi = n.peers.splitStep(n.self.ID, s, lo, hi)
		if target, ok := n.peers.strongestIn(candLo, candHi, ev.Subject.ID, nil, n.env.Rand()); ok {
			n.forwardTo(target, ev, s, tid, nil)
		}
	}
}

// forwardTo forwards the event to target as step s+1, reliably; on
// failure stepFailed drops the stale pointer and redirects. failed lists
// the targets given up on for this step.
func (n *Node) forwardTo(target wire.Pointer, ev wire.Event, s int, tid wire.TraceID, failed []wire.Pointer) {
	msg := wire.Message{
		Type:  wire.MsgEvent,
		To:    target.Addr,
		Step:  uint8(s + 1),
		Event: ev,
		Trace: tid,
	}
	n.m.mcForwards.Inc()
	n.span(tid, trace.SpanForward, 0, target.Addr, s+1, ev)
	p := n.track(sendMulticastStep, msg, target)
	p.cands = failed
	n.arm(p)
}

// stepFailed is §4.2's "turn back to line (3)": no response after the
// attempt budget — remove the stale pointer and redirect to a new target
// for the same step.
func (n *Node) stepFailed(p *pendingSend) {
	ev, s, tid, target := p.msg.Event, int(p.msg.Step)-1, p.msg.Trace, p.target
	n.m.mcRedirects.Inc()
	n.span(tid, trace.SpanRedirect, 0, target.Addr, s+1, ev)
	n.removePeer(target.ID, RemoveStale)
	// Before announcing the death system-wide, verify it with an
	// independent probe round: under message loss, one failed send
	// chain alone produces enough false positives to flood the
	// overlay with bogus leave events (each one a full multicast,
	// whose extra sends produce more false positives in turn).
	if !(ev.Kind == wire.EventLeave && ev.Subject.ID == target.ID) {
		n.verifyFailure(target)
	}
	// Redirect: the strongest candidate for step s that has not failed.
	// A redirect chain is linear: this record is released once stepFailed
	// returns and only the next step's record carries the set on, so
	// appending to its slice cannot change a set another record holds.
	failed := append(p.cands, target)
	lo, hi := n.peers.prefixRange(nodeid.EigenstringOf(n.self.ID.FlipBit(s), s+1))
	if next, ok := n.peers.strongestIn(lo, hi, ev.Subject.ID, failed, n.env.Rand()); ok {
		n.forwardTo(next, ev, s, tid, failed)
	}
}

// verifyFailure double-checks a suspected death with a reliable
// heartbeat round and only then reports the leave (§4.1's detection with
// §4.2's evidence combined — six consecutive losses are needed for a
// false positive).
func (n *Node) verifyFailure(target wire.Pointer) {
	if n.dedup.get(target.ID).dead {
		return
	}
	n.arm(n.track(sendVerify, wire.Message{Type: wire.MsgHeartbeat, To: target.Addr}, target))
}

// verifyAnswered handles a suspect that answered its verification
// heartbeat: alive after all — the earlier send chain lost to the
// network, not to a death. Restore the pointer we dropped.
func (n *Node) verifyAnswered(p *pendingSend, _ wire.Message) {
	target := p.target
	n.m.failFalseAlarms.Inc()
	n.moment(trace.SpanFalseAlarm, target.Addr, 0)
	if !n.dedup.get(target.ID).dead && n.eigen.Contains(target.ID) {
		n.upsertPeer(target)
	}
}

// verifyFailed reports the leave of a suspect that stayed silent through
// the whole verification round.
func (n *Node) verifyFailed(p *pendingSend) {
	target := p.target
	seq, ok := n.markDead(target.ID)
	if !ok {
		return
	}
	n.m.failVerified.Inc()
	n.moment(trace.SpanVerifyDetect, target.Addr, 0)
	n.report(wire.Event{Kind: wire.EventLeave, Subject: target, Seq: seq}, n.newTrace())
}
