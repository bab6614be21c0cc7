package core

import (
	"math/bits"

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
// Records come from the node's pool (ChunkPool.sends), which every node
// of a simulator cluster shares. One is live from Get until releaseSend,
// which runs only after it has left the pending ring, so neither an ack
// nor a timeout can reach a recycled record: ack ids are never reused, a
// late ack finds no record with its id, and the ack queue skips an entry
// whose id is no longer pending.
type pendingSend struct {
	id       uint64
	msg      wire.Message
	attempts int
	kind     sendKind

	// target is the peer a multicast step or verification addresses;
	// failed lists the targets a multicast step has already given up on
	// (nil until the first redirect).
	target wire.Pointer
	failed []nodeid.ID

	// sendGeneric only: onResponse fires with the ack/response message;
	// onFail fires after the attempt budget is exhausted.
	onResponse func(resp wire.Message)
	onFail     func()

	// next links the record into the pool's free list while released.
	next *pendingSend
}

// Link implements freelist.Linked.
func (r *pendingSend) Link() **pendingSend { return &r.next }

// minPendingRing is the pending ring's first size, a power of two.
const minPendingRing = 16

// releaseSend blanks a record and returns it to the pool. The caller has
// already taken it out of its pending ring.
//
//pwlint:noalloc
func (n *Node) releaseSend(r *pendingSend) {
	*r = pendingSend{}
	n.pool.sends.Put(r)
}

// pendingRing holds the sends awaiting acks at index id & (len-1), its
// length a power of two. Ack ids are issued in ascending order and each
// send is answered or times out within its attempts × AckTimeout, so the
// live ids span a window and a slot collision only means that window
// outgrew the ring: the ring then doubles. A lookup compares the
// record's id, so a late or duplicate ack whose slot now holds a younger
// send misses. The slot arrays come from the node's pool, and each
// returns to it when the ring doubles or its node stops.
type pendingRing struct {
	slots []*pendingSend
	n     int // sends held
}

// get returns the send awaiting ack id, or nil.
func (r *pendingRing) get(id uint64) *pendingSend {
	if len(r.slots) == 0 {
		return nil
	}
	if p := r.slots[id&uint64(len(r.slots)-1)]; p != nil && p.id == id {
		return p
	}
	return nil
}

// add puts p in its slot, doubling the ring until the slot is free.
func (r *pendingRing) add(p *pendingSend, pool *ChunkPool) {
	for {
		if len(r.slots) == 0 {
			r.slots = pool.takeRing(minPendingRing)
		}
		if i := p.id & uint64(len(r.slots)-1); r.slots[i] == nil {
			r.slots[i] = p
			r.n++
			return
		}
		r.grow(pool)
	}
}

// grow doubles the ring and returns the old slot array to the pool. Held
// ids are distinct modulo the old length, so they stay distinct modulo
// the new one.
func (r *pendingRing) grow(pool *ChunkPool) {
	slots := pool.takeRing(2 * len(r.slots))
	mask := uint64(len(slots) - 1)
	for _, q := range r.slots {
		if q != nil {
			slots[q.id&mask] = q
		}
	}
	pool.putRing(r.slots)
	r.slots = slots
}

// ringClass is the size class of a ring of size slots: size is
// minPendingRing<<ringClass(size).
func ringClass(size int) int { return bits.TrailingZeros(uint(size / minPendingRing)) }

// takeRing returns a slot array of size slots, all nil: a free one of
// that size, or a new one.
func (p *ChunkPool) takeRing(size int) []*pendingSend {
	if k := ringClass(size); k < len(p.rings) {
		if free := p.rings[k]; len(free) > 0 {
			slots := free[len(free)-1]
			free[len(free)-1] = nil
			p.rings[k] = free[:len(free)-1]
			return slots
		}
	}
	return make([]*pendingSend, size)
}

// putRing clears a slot array that no ring holds any more and keeps it
// for takeRing, unless the pool serves one node.
func (p *ChunkPool) putRing(slots []*pendingSend) {
	if p.oneNode {
		return
	}
	clear(slots)
	k := ringClass(len(slots))
	for len(p.rings) <= k {
		p.rings = append(p.rings, nil)
	}
	p.rings[k] = append(p.rings[k], slots)
}

// remove takes p, which is held, out of the ring.
func (r *pendingRing) remove(p *pendingSend) {
	r.slots[p.id&uint64(len(r.slots)-1)] = nil
	r.n--
}

// sendReliable transmits msg to a single target, retrying up to attempts
// times with AckTimeout between tries, then calling onFail. The returned
// ackID is stamped into msg. Responses (any message echoing the ackID)
// route to onResponse.
func (n *Node) sendReliable(msg wire.Message, attempts int, onResponse func(wire.Message), onFail func()) uint64 {
	p := n.pool.sends.Get()
	p.msg = msg
	p.attempts = attempts
	p.onResponse = onResponse
	p.onFail = onFail
	return n.arm(p)
}

// sendTracked is sendReliable for the per-message kinds: RetryAttempts
// tries, then the kind's failure path with target (and failed) as its
// arguments.
func (n *Node) sendTracked(msg wire.Message, kind sendKind, target wire.Pointer, failed []nodeid.ID) {
	p := n.pool.sends.Get()
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
	n.pending.add(p, n.pool)
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
func (n *Node) awaited(id uint64) bool { return n.pending.get(id) != nil }

// onAckTimeout retries or gives up on the pending send id; the ack queue
// calls it AckTimeout after each attempt that is still unanswered.
func (n *Node) onAckTimeout(id uint64) {
	p := n.pending.get(id)
	if n.stopped || p == nil {
		return
	}
	if p.attempts > 0 {
		n.m.ackRetries.Inc()
		n.span(p.msg.Trace, trace.SpanAckRetry, 0, p.msg.To, int(p.msg.Step), p.msg.Event)
		n.transmit(p)
		return
	}
	n.pending.remove(p)
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
	p := n.pending.get(id)
	if p == nil {
		return // duplicate or late ack
	}
	n.pending.remove(p)
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
