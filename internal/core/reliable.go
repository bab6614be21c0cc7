package core

import (
	"math/bits"

	"peerwindow/internal/trace"
	"peerwindow/internal/wire"
)

// sendKind names a reliable send's row of sendRules. Every send carries
// its continuation as data in its pendingSend, so a send allocates
// nothing and the node's pending work can be read.
type sendKind uint8

const (
	sendMulticastStep sendKind = iota // one §4.2 tree forward
	sendVerify                        // a heartbeat double-checking a suspected death
	sendReport                        // a §4.5 report to a top-node candidate
	sendReportRefresh                 // §4.5: a peer's top-node list, the report's candidates spent
	sendPassUp                        // a report handed to a stronger peer
	sendJoinTops                      // §4.3 step 1: the bootstrap's top-node list
	sendJoinQuery                     // step 2: a top node's level and cost
	sendJoinRefer                     // §4.4: our part's tops, from a top node of another part
	sendJoinPeers                     // step 3: the top node's peer list
	sendJoinTopList                   // step 3: the top node's top-node list
	sendJoinReport                    // step 4: the join event, through the top node
	sendReconcile                     // the anti-entropy download after a join
	sendRaise                         // a §2 level raise's download
	sendWarmRaise                     // a §4.3 warm-up raise's download
	sendCrossRefresh                  // §4.5: a remembered part's tops, from one of them
	sendProbe                         // §4.1: the ring heartbeat to the right neighbour
)

// sendRule is one row of sendRules. answered runs on the send's answer,
// failed once its attempts have run out; nil does nothing. A kind that
// walks tries candidates in turn, addressing cands[0], any other kind
// its target; a join kind is pending only during a join, one at a time.
type sendRule struct {
	answered    func(*Node, *pendingSend, wire.Message)
	failed      func(*Node, *pendingSend)
	walks, join bool
}

// sendRules is the one dispatch point of the reliable sends: resolveAck
// runs the kind's answered rule and onAckTimeout its failed rule. Neither
// runs on a stopped node (see phase), so no rule checks the phase.
var sendRules = [...]sendRule{
	sendMulticastStep: {failed: (*Node).stepFailed},
	sendVerify:        {answered: (*Node).verifyAnswered, failed: (*Node).verifyFailed},
	sendReport:        {failed: (*Node).reportFailed, walks: true},
	sendReportRefresh: {answered: (*Node).refreshAnswered, failed: (*Node).refreshFailed},
	sendPassUp:        {failed: (*Node).passUpFailed},
	sendJoinTops:      {answered: (*Node).joinTopsAnswered, failed: (*Node).joinFailed, join: true},
	sendJoinQuery:     {answered: (*Node).joinQueryAnswered, failed: (*Node).joinQueryFailed, walks: true, join: true},
	sendJoinRefer:     {answered: (*Node).joinReferAnswered, failed: (*Node).joinFailed, join: true},
	sendJoinPeers:     {answered: (*Node).joinPeersAnswered, failed: (*Node).joinFailed, join: true},
	sendJoinTopList:   {answered: (*Node).joinTopListAnswered, failed: (*Node).joinFailed, join: true},
	sendJoinReport:    {answered: (*Node).joinReportAnswered, failed: (*Node).joinFailed, join: true},
	sendReconcile:     {answered: (*Node).reconcileAnswered, failed: (*Node).reconcileFailed},
	sendRaise:         {answered: (*Node).raised, failed: (*Node).raiseFailed},
	sendWarmRaise:     {answered: (*Node).raised, failed: (*Node).raiseFailed},
	sendCrossRefresh:  {answered: (*Node).crossRefreshAnswered, failed: (*Node).crossRefreshFailed},
	sendProbe:         {failed: (*Node).probeFailed},
}

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
	// once is set when the kind's one-shot fallback is spent: a report's
	// §4.5 refresh, a join's §4.4 referral, reconcile's second donor.
	once bool

	// target is the addressee of a kind that does not walk; cands are a
	// walking kind's candidates left, or a multicast step's failed
	// targets; report holds a §4.5 refresh's event and trace, in a
	// second record from the pool that is in no ring.
	target wire.Pointer
	cands  []wire.Pointer
	report *pendingSend

	// next links the record into the pool's free list while released.
	next *pendingSend
}

// Link implements freelist.Linked.
func (r *pendingSend) Link() **pendingSend { return &r.next }

// minPendingRing is the pending ring's first size, a power of two.
const minPendingRing = 16

// releaseSend blanks a record, and the report it holds, and returns them
// to the pool. The caller has already taken it out of its pending ring.
//
//pwlint:noalloc
func (n *Node) releaseSend(r *pendingSend) {
	if r.report != nil {
		n.releaseSend(r.report)
	}
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

// track takes a record for a reliable send of msg to target, with
// RetryAttempts tries; the caller completes the continuation and arms it.
func (n *Node) track(kind sendKind, msg wire.Message, target wire.Pointer) *pendingSend {
	p := n.pool.sends.Get()
	p.kind, p.msg, p.target = kind, msg, target
	p.attempts = n.cfg.RetryAttempts
	return p
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

// transmit performs one attempt and queues its timeout: a heartbeat of
// the ring probe ProbeTimeout later in probeWaits, any other send
// AckTimeout later in acks.
func (n *Node) transmit(p *pendingSend) {
	p.attempts--
	n.send(p.msg)
	if p.kind == sendProbe {
		n.probeWaits.push(n.cfg.ProbeTimeout, p.id)
	} else {
		n.acks.push(n.cfg.AckTimeout, p.id)
	}
}

// awaited reports whether ack id is still pending: the liveness test of
// the ack and probe-wait queues.
func (n *Node) awaited(id uint64) bool { return n.pending.get(id) != nil }

// onAckTimeout retries or gives up on the pending send id; the ack and
// probe-wait queues call it after each attempt that is still pending
// (awaited). A heartbeat's retries and failures count as the probe's
// (see probeFailed), any other send's as the ack's.
func (n *Node) onAckTimeout(id uint64) {
	p := n.pending.get(id)
	probe := p.kind == sendProbe
	if p.attempts > 0 {
		if probe {
			n.m.probeRetries.Inc()
			n.moment(trace.SpanProbeRetry, p.msg.To, n.cfg.RetryAttempts-p.attempts+1)
		} else {
			n.m.ackRetries.Inc()
			n.span(p.msg.Trace, trace.SpanAckRetry, 0, p.msg.To, int(p.msg.Step), p.msg.Event)
		}
		n.transmit(p)
		return
	}
	n.pending.remove(p)
	if !probe {
		n.m.ackFailures.Inc()
		n.span(p.msg.Trace, trace.SpanDrop, 0, p.msg.To, int(p.msg.Step), p.msg.Event)
	}
	if rule := sendRules[p.kind].failed; rule != nil {
		rule(n, p)
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
	if rule := sendRules[p.kind].answered; rule != nil {
		rule(n, p, resp)
	}
	n.releaseSend(p)
}
