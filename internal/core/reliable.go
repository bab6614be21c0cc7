package core

import (
	"peerwindow/internal/nodeid"
	"peerwindow/internal/trace"
	"peerwindow/internal/wire"
)

// sendKind says what happens when a reliable send is answered or runs out
// of attempts. The per-message paths carry their continuation as data in
// the pendingSend instead of as closures, so a send allocates nothing.
type sendKind uint8

const (
	// sendGeneric runs the onResponse/onFail closures: the join, report
	// and download paths, which are rare and keep their state in closures.
	sendGeneric sendKind = iota
	// sendMulticastStep is one §4.2 tree forward (see stepFailed).
	sendMulticastStep
	// sendVerify is the heartbeat round that double-checks a suspected
	// death (see verifyAnswered, verifyFailed).
	sendVerify
)

// pendingSend tracks one reliable request awaiting its ack/response.
//
// Records are pooled per Node. One is live from acquireSend until
// releaseSend, which runs only after its pending[id] entry is deleted, so
// neither an ack nor a timeout can reach a recycled record: ack ids are
// never reused, a late ack finds no pending entry, and the ack queue
// skips an entry whose id is no longer pending.
type pendingSend struct {
	id       uint64
	msg      wire.Message
	attempts int
	kind     sendKind

	// target is the peer a multicast step or verification addresses; failed is the set of targets a multicast step has already
	// given up on (nil until the first redirect).
	target wire.Pointer
	failed map[nodeid.ID]bool

	// sendGeneric only: onResponse fires with the ack/response message;
	// onFail fires after the attempt budget is exhausted.
	onResponse func(resp wire.Message)
	onFail     func()
}

// acquireSend takes a blank record from the node's pool.
//
//pwlint:noalloc
func (n *Node) acquireSend() *pendingSend {
	if k := len(n.sendPool); k > 0 {
		p := n.sendPool[k-1]
		n.sendPool = n.sendPool[:k-1]
		return p
	}
	return &pendingSend{} //pwlint:allow noalloc pool miss; steady state reuses released records
}

// releaseSend blanks a record and returns it to the pool. The caller has
// already deleted its pending entry.
//
//pwlint:noalloc
func (n *Node) releaseSend(p *pendingSend) {
	*p = pendingSend{}
	n.sendPool = append(n.sendPool, p)
}

// sendReliable transmits msg to a single target, retrying up to attempts
// times with AckTimeout between tries, then calling onFail. The returned
// ackID is stamped into msg. Responses (any message echoing the ackID)
// route to onResponse.
func (n *Node) sendReliable(msg wire.Message, attempts int, onResponse func(wire.Message), onFail func()) uint64 {
	p := n.acquireSend()
	p.msg = msg
	p.attempts = attempts
	p.onResponse = onResponse
	p.onFail = onFail
	return n.arm(p)
}

// sendTracked is sendReliable for the per-message kinds: RetryAttempts
// tries, then the kind's failure path with target (and failed) as its
// arguments.
func (n *Node) sendTracked(msg wire.Message, kind sendKind, target wire.Pointer, failed map[nodeid.ID]bool) {
	p := n.acquireSend()
	p.msg = msg
	p.attempts = n.cfg.RetryAttempts
	p.kind = kind
	p.target = target
	p.failed = failed
	n.arm(p)
}

// arm registers a filled-in record under a fresh ack id and makes the
// first attempt.
func (n *Node) arm(p *pendingSend) uint64 {
	n.nextAckID++
	p.id = n.nextAckID
	p.msg.AckID = p.id
	n.pending[p.id] = p
	n.transmit(p)
	return p.id
}

// transmit performs one attempt and queues its timeout AckTimeout later.
func (n *Node) transmit(p *pendingSend) {
	p.attempts--
	n.send(p.msg)
	n.acks.push(n.cfg.AckTimeout, p.id)
}

// awaited reports whether ack id is still pending: the ack queue's
// liveness test.
func (n *Node) awaited(id uint64) bool {
	_, ok := n.pending[id]
	return ok
}

// onAckTimeout retries or gives up on the pending send id; the ack queue
// calls it AckTimeout after each attempt that is still unanswered.
func (n *Node) onAckTimeout(id uint64) {
	p := n.pending[id]
	if n.stopped || p == nil {
		return
	}
	if p.attempts > 0 {
		n.m.ackRetries.Inc()
		n.span(p.msg.Trace, trace.SpanAckRetry, 0, p.msg.To, int(p.msg.Step), p.msg.Event)
		n.transmit(p)
		return
	}
	delete(n.pending, p.id)
	n.m.ackFailures.Inc()
	n.span(p.msg.Trace, trace.SpanDrop, 0, p.msg.To, int(p.msg.Step), p.msg.Event)
	switch p.kind {
	case sendMulticastStep:
		n.stepFailed(p)
	case sendVerify:
		n.verifyFailed(p.target)
	default:
		if p.onFail != nil {
			p.onFail()
		}
	}
	n.releaseSend(p)
}

// resolveAck completes a pending send with its response.
func (n *Node) resolveAck(id uint64, resp wire.Message) {
	p, ok := n.pending[id]
	if !ok {
		return // duplicate or late ack
	}
	delete(n.pending, id)
	switch p.kind {
	case sendVerify:
		n.verifyAnswered(p.target)
	case sendGeneric:
		if p.onResponse != nil {
			p.onResponse(resp)
		}
	}
	n.releaseSend(p)
}
