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

// probeWait is a heartbeat waiting out ProbeTimeout: its target and its
// ack id, zeroed when the ack comes back. A round can start while the
// previous round's redirect chain still waits, so several can be queued;
// each fires with its own target.
type probeWait struct {
	target wire.Pointer
	ackID  uint64
}

// probeAwaited reports whether w's heartbeat is still unanswered: the
// probe queue's liveness test.
func (*Node) probeAwaited(w probeWait) bool { return w.ackID != 0 }

// probeRound is the periodic heartbeat: probe, then arm the next round.
func (n *Node) probeRound() {
	n.probeOnce()
	n.probeTimer.arm(n.cfg.ProbeInterval)
}

// probeAttempts counts heartbeat tries against the current target; a
// neighbour is only declared failed after RetryAttempts silent probes,
// so a single lost heartbeat or ack cannot evict a live node.

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
	n.probeAttempts = 0
	n.probeStart = n.env.Now()
	n.m.probeRounds.Inc()
	n.moment(trace.SpanProbeRound, target.Addr, 0)
	n.probeSend(target)
}

// probeSend transmits one heartbeat attempt and arms its timeout.
func (n *Node) probeSend(target wire.Pointer) {
	n.probeAttempts++
	if n.probeAttempts > 1 {
		n.m.probeRetries.Inc()
		n.moment(trace.SpanProbeRetry, target.Addr, n.probeAttempts)
	}
	msg := wire.Message{Type: wire.MsgHeartbeat, To: target.Addr}
	n.nextAckID++
	n.probeAckID = n.nextAckID
	msg.AckID = n.probeAckID
	n.send(msg)
	n.probeWaits.push(n.cfg.ProbeTimeout, probeWait{target: target, ackID: n.probeAckID})
}

// handleProbeAck clears the outstanding probe if the ack matches. Only
// the newest heartbeat can match, and its wait is the last one queued.
func (n *Node) handleProbeAck(ackID uint64) {
	if ackID != n.probeAckID {
		return // stale ack from an earlier round
	}
	n.probeAckID = 0
	if w := n.probeWaits.last(); w != nil && w.ackID == ackID {
		w.ackID = 0
	}
}

// onProbeTimeout retries an unanswered heartbeat, or declares the
// neighbour failed, reports the leave, and redirects probing to the next
// neighbour immediately.
func (n *Node) onProbeTimeout(w probeWait) {
	if n.probeAckID == 0 {
		return
	}
	target := w.target
	n.probeAckID = 0
	if n.probeAttempts < n.cfg.RetryAttempts {
		// Retry before declaring death: a lost heartbeat must not evict
		// a live neighbour.
		n.probeSend(target)
		return
	}
	detectLatency := n.env.Now() - n.probeStart
	n.m.probeFailures.Inc()
	n.m.detectLatency.Observe(detectLatency.Seconds())
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
