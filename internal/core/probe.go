package core

import (
	"peerwindow/internal/trace"
	"peerwindow/internal/wire"
)

// This file implements the §4.1 failure detector. Nodes sharing an
// eigenstring are fully connected through their peer lists (§2 property
// 5) and are viewed as a circle ordered by nodeId; every node heartbeats
// only its right neighbour (the next larger nodeId, wrapping). On a
// missed heartbeat the prober reports a leave event to a top node and
// immediately redirects its probing to the next neighbour — which is what
// makes the detector resilient to concurrent failures (the figure 3
// example: A detects B, then redirects to C and detects C too).
//
// A heartbeat is a reliable send of kind sendProbe: it is tracked,
// retried and answered like every other request (reliable.go), except
// that its attempts wait out ProbeTimeout in probeWaits, and a neighbour
// is only declared failed after RetryAttempts silent heartbeats, so a
// single lost heartbeat or ack cannot evict a live node.

// probeRound is the periodic heartbeat: start a chain unless the
// previous chain's heartbeat is still pending, then arm the next round.
// So one chain walks the ring at a time, however long its redirects take.
func (n *Node) probeRound() {
	if n.pending.get(n.probeID) == nil {
		n.probeOnce()
	}
	n.probeTimer.arm(n.cfg.ProbeInterval)
}

// probeOnce heartbeats the current right neighbour: the next-larger
// nodeId in the whole peer list. The paper draws the circle within one
// eigenstring group (its figure 3), which is equivalent at its 100,000-
// node scale where every group is large; taking the successor over the
// whole list keeps the same one-heartbeat-per-node cost while also
// covering nodes whose group happens to be a singleton (weak nodes that
// shifted to a sparse level would otherwise die unnoticed). See
// DESIGN.md.
func (n *Node) probeOnce() {
	target, ok := n.peers.Successor(n.self.ID, nil)
	if !ok {
		return // alone in the group; nothing to probe
	}
	n.probeStart = n.env.Now()
	n.m.probeRounds.Inc()
	n.moment(trace.SpanProbeRound, target.Addr, 0)
	n.probeID = n.arm(n.track(sendProbe, wire.Message{Type: wire.MsgHeartbeat, To: target.Addr}, target))
}

// probeFailed declares a neighbour that stayed silent through every
// heartbeat failed, reports the leave, and redirects probing to the next
// neighbour immediately.
func (n *Node) probeFailed(p *pendingSend) {
	target := p.target
	n.m.probeFailures.Inc()
	n.m.detectLatency.Observe((n.env.Now() - n.probeStart).Seconds())
	n.moment(trace.SpanProbeDetect, target.Addr, 0)
	if e, ok := n.removePeer(target.ID, RemoveStale); ok {
		n.lifetimes.Add(int(e.ptr.Level), float64(n.env.Now()-e.firstSeen))
	}
	// Report the failure with the next sequence number we know for the
	// subject, so every concurrent detector produces the same event and
	// dedup collapses them. Skip it when this subject's leave was
	// already applied or announced.
	if seq, ok := n.markDead(target.ID); ok {
		ev := wire.Event{Kind: wire.EventLeave, Subject: target, Seq: seq}
		n.report(ev, n.newTrace())
	}
	// Redirect probing to the next neighbour right away; if it is dead
	// too, the chain of timeouts will walk the ring (figure 3).
	n.probeOnce()
}
