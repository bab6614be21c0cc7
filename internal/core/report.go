package core

import (
	"peerwindow/internal/trace"
	"peerwindow/internal/wire"
)

// This file implements the report path: a state-changing event must first
// reach a top node of the changing node's part, which then originates the
// tree multicast (§2, §4.4, §4.5).

// announce reports a state change about this node itself, stamping a
// fresh trace context (a no-op zero ID when no span sink is attached).
func (n *Node) announce(kind wire.EventKind) {
	n.seq++
	n.report(wire.Event{Kind: kind, Subject: n.self, Seq: n.seq}, n.newTrace())
}

// report delivers an event to a top node. A top node handles it locally;
// everyone else sends a MsgReport to a member of its top-node list,
// walking the list on failures, lazily refreshing it from a peer when it
// is exhausted (§4.5), and as a last resort escalating through the
// strongest known peer or originating locally (degraded but still covers
// the weaker part of the audience). tid is the causal context stamped by
// the announcer; it rides the MsgReport envelope to the originator.
func (n *Node) report(ev wire.Event, tid wire.TraceID) {
	if n.isTopNode() {
		n.originate(ev, tid)
		return
	}
	n.reportVia(ev, tid, n.shuffledTops(), false)
}

// shuffledTops returns a randomized copy of the top-node list so report
// load spreads across top nodes ("randomly chosen from its top-node
// list", §4.1).
func (n *Node) shuffledTops() []wire.Pointer {
	tops := append([]wire.Pointer(nil), n.topList...)
	n.env.Rand().Shuffle(len(tops), func(i, j int) {
		tops[i], tops[j] = tops[j], tops[i]
	})
	return tops
}

// reportVia tries each candidate top node in turn (reportFailed walks
// on). refreshed marks the one-shot "ask another node in the peer list
// for his top-node list as a substitution" fallback of §4.5 as spent.
func (n *Node) reportVia(ev wire.Event, tid wire.TraceID, tops []wire.Pointer, refreshed bool) {
	if len(tops) == 0 {
		if !refreshed {
			if p, ok := n.randomPeer(); ok {
				r := n.track(sendReportRefresh, wire.Message{Type: wire.MsgTopListReq, To: p.Addr}, p)
				r.report = n.pool.sends.Get()
				r.report.msg = wire.Message{Type: wire.MsgReport, Event: ev, Trace: tid}
				n.arm(r)
				return
			}
		}
		n.reportEscalate(ev, tid)
		return
	}
	n.m.reportsSent.Inc()
	r := n.track(sendReport, wire.Message{Type: wire.MsgReport, To: tops[0].Addr, Event: ev, Trace: tid}, wire.Pointer{})
	r.cands, r.once = tops, refreshed
	n.arm(r)
}

// reportFailed drops the unreachable top node from the list and tries
// the next candidate.
func (n *Node) reportFailed(p *pendingSend) {
	n.topList = dropID(n.topList, p.cands[0].ID)
	n.reportVia(p.msg.Event, p.msg.Trace, p.cands[1:], p.once)
}

// refreshAnswered reports through the substitute top-node list;
// refreshFailed escalates.
func (n *Node) refreshAnswered(p *pendingSend, resp wire.Message) {
	n.mergeTopPointers(resp.Pointers)
	n.reportVia(p.report.msg.Event, p.report.msg.Trace, n.shuffledTops(), true)
}

func (n *Node) refreshFailed(p *pendingSend) {
	n.reportVia(p.report.msg.Event, p.report.msg.Trace, nil, true)
}

// reportEscalate is the degraded path when no top node can be reached.
func (n *Node) reportEscalate(ev wire.Event, tid wire.TraceID) {
	n.m.reportEscalations.Inc()
	n.span(tid, trace.SpanReportEscalate, 0, 0, 0, ev)
	n.passUp(ev, tid)
}

// passUp hands ev to the strongest known peer when it is stronger than
// us, or originates the multicast here (a top node, or the last resort
// when that peer is unreachable, passUpFailed: it covers at least our own
// subtree of the audience).
func (n *Node) passUp(ev wire.Event, tid wire.TraceID) {
	if p, ok := n.peers.Strongest(); ok && int(p.Level) < int(n.self.Level) {
		n.arm(n.track(sendPassUp, wire.Message{Type: wire.MsgReport, To: p.Addr, Event: ev, Trace: tid}, p))
		return
	}
	n.originate(ev, tid)
}

func (n *Node) passUpFailed(p *pendingSend) { n.originate(p.msg.Event, p.msg.Trace) }

// originate applies ev here and, if it was fresh, starts its tree.
func (n *Node) originate(ev wire.Event, tid wire.TraceID) {
	if n.applyEvent(ev) {
		n.originateMulticast(ev, tid)
	}
}

// handleReport processes an incoming MsgReport: ack it with piggybacked
// top pointers (§4.5), then either originate the multicast (top node) or
// pass the report toward a stronger node WITHOUT applying the event — the
// tree will deliver it back to us, and applying early would make the
// delivery look like a duplicate and cut off our subtree. passUp's test
// for a stronger peer is exactly "not a top node" (see isTopNode).
func (n *Node) handleReport(m wire.Message) {
	tops := n.ackPointers()
	n.send(wire.Message{Type: wire.MsgReportAck, To: m.From, AckID: m.AckID, Pointers: tops})
	n.passUp(m.Event, m.Trace)
}

// ackPointers builds the t−1 top-node pointers piggybacked on report
// acks.
func (n *Node) ackPointers() []wire.Pointer {
	tops := n.ownPartTops()
	return tops[:min(len(tops), n.cfg.TopListSize-1)]
}

// randomPeer picks a uniformly random pointer from the peer list.
func (n *Node) randomPeer() (wire.Pointer, bool) {
	ln := n.peers.Len()
	if ln == 0 {
		return wire.Pointer{}, false
	}
	return n.peers.At(n.env.Rand().Intn(ln)), true
}
