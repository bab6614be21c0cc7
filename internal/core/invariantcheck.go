package core

// Structural invariant checkers for the protocol state. They are always
// compiled (so package core's own tests can corrupt unexported state and
// prove the checks bite); internal/invariant wraps them behind the
// pwinvariants build tag for deep checking after every applied event in
// the simulation harness. See docs/STATIC_ANALYSIS.md.

import (
	"fmt"
	"slices"

	"peerwindow/internal/des"
	"peerwindow/internal/freelist"
	"peerwindow/internal/nodeid"
	"peerwindow/internal/wire"
)

// CheckInvariants verifies the PeerList's structural invariants:
//
//   - no chunk is empty, and none holds more than chunkCap entries;
//   - the directory matches the chunks: each count is the chunk's, each
//     running count is the sum of the counts up to it, and each last ID
//     is the chunk's last entry;
//   - the chunks are the ones the content rule cuts: no entry but a
//     chunk's last is a natural end, and every chunk but the list's
//     last is closed (see cutLen);
//   - IDs ascend across chunk boundaries;
//   - entries are in strictly ascending ID order (sorted, no duplicates);
//   - every entry's level is within [0, nodeid.Bits];
//   - the info table holds exactly the IDs whose entry is flagged as
//     carrying info, each with a non-empty value;
//   - the stamps are one per entry, in leaves that keep the rules of
//     stampSeq.check;
//   - every chunk is held in the list's pool: interned under its content
//     hash with a non-zero count. This clause runs last, because an
//     entry written in place also breaks the hash, and the clauses above
//     name the fault more closely.
//
// It returns nil when the list is consistent and a descriptive error for
// the first violation found.
func (pl *PeerList) CheckInvariants() error {
	end, flagged := int32(0), 0
	var prev *entry
	for k := range pl.dir {
		r := &pl.dir[k]
		if err := checkChunk(r.c, k == len(pl.dir)-1); err != nil {
			return fmt.Errorf("chunk %d: %w", k, err)
		}
		n := int(r.c.n)
		if int(r.n) != n {
			return fmt.Errorf("directory drift at chunk %d: count %d, chunk holds %d", k, r.n, n)
		}
		if end += int32(n); r.end != end {
			return fmt.Errorf("directory drift at chunk %d: running count %d, chunks hold %d", k, r.end, end)
		}
		if r.last != r.c.e[n-1].id {
			return fmt.Errorf("directory drift at chunk %d: last ID %v, chunk ends at %v", k, r.last, r.c.e[n-1].id)
		}
		es := pl.entries(k)
		for j := range es {
			e := &es[j]
			if prev != nil && !prev.id.Less(e.id) {
				return fmt.Errorf("peer list unsorted at chunk %d entry %d: %v is not above %v", k, j, e.id, prev.id)
			}
			prev = e
			if int(e.level) > nodeid.Bits {
				return fmt.Errorf("peer %v has level %d beyond nodeid.Bits", e.id, e.level)
			}
			if e.hasInfo {
				flagged++
				if len(pl.info[e.id]) == 0 {
					return fmt.Errorf("peer %v is flagged as carrying info but the info table has none", e.id)
				}
			}
		}
	}
	if len(pl.info) != flagged {
		return fmt.Errorf("info table holds %d entries for %d flagged peers", len(pl.info), flagged)
	}
	if err := pl.stamps.check(); err != nil {
		return err
	}
	if n := pl.stamps.len(); n != int(end) {
		return fmt.Errorf("%d stamps for %d entries", n, end)
	}
	for k := range pl.dir {
		if err := pl.pool.checkHeld(pl.dir[k].c); err != nil {
			return fmt.Errorf("chunk %d: %w", k, err)
		}
	}
	return nil
}

// check verifies the stamp leaves: no leaf is empty, none holds more
// than leafCap stamps, each running count is the sum of the counts up to
// it, and every slot past a leaf's count is zero (a drifted count would
// hide a stamp or expose a stale one).
func (q *stampSeq) check() error {
	end := int32(0)
	for k := range q.dir {
		r := &q.dir[k]
		switch {
		case r.n <= 0:
			return fmt.Errorf("stamp leaf %d is empty", k)
		case r.n > leafCap:
			return fmt.Errorf("stamp leaf %d holds %d stamps, over its capacity of %d", k, r.n, leafCap)
		}
		if end += r.n; r.end != end {
			return fmt.Errorf("stamp directory drift at leaf %d: running count %d, leaves hold %d", k, r.end, end)
		}
		for _, s := range r.leaf.s[r.n:] {
			if s != (stamp{}) {
				return fmt.Errorf("stamp directory drift at leaf %d: a slot past its %d stamps is not zero", k, r.n)
			}
		}
	}
	return nil
}

// checkChunk verifies that c holds between 1 and chunkCap entries and is
// cut by the content rule: no entry before its last is a natural end,
// and unless last is set (the list's last chunk) it is closed.
func checkChunk(c *chunk, last bool) error {
	n := int(c.n)
	if n <= 0 || n > chunkCap {
		return fmt.Errorf("holds %d entries, want 1 to %d", n, chunkCap)
	}
	for j, e := range c.e[:n-1] {
		if natural(e.id) {
			return fmt.Errorf("entry %d of %d (%v) is a natural end inside the chunk", j, n, e.id)
		}
	}
	if _, closed := cutLen(c.entries()); !closed && !last {
		return fmt.Errorf("open chunk of %d entries ends at %v before the list does", n, c.e[n-1].id)
	}
	return nil
}

// checkHeld verifies that a list of this pool may hold c: the pool
// interns it under its content hash with a non-zero count.
func (p *ChunkPool) checkHeld(c *chunk) error {
	switch {
	case p == nil:
		return fmt.Errorf("held by a list without a pool")
	case c.refs <= 0:
		return fmt.Errorf("held with a count of %d", c.refs)
	case hashEntries(c.entries()) != c.hash:
		return fmt.Errorf("content hashes to %#x, interned under %#x", hashEntries(c.entries()), c.hash)
	}
	if len(p.index) > 0 {
		for q := p.index[c.hash&uint64(len(p.index)-1)]; q != nil; q = q.next {
			if q == c {
				return nil
			}
		}
	}
	return fmt.Errorf("not interned under its hash %#x", c.hash)
}

// CheckInvariants verifies a pool against lists, which must be
// every list the pool serves:
//
//   - every interned chunk is cut by the content rule (see checkChunk,
//     short of closure, which only a list can judge), still hashes to
//     the hash it is interned under, sits in that hash's index bucket,
//     and is interned once; the index counts its chunks exactly;
//   - no interned chunk's count is zero, and each count is the number of
//     times the lists hold the chunk;
//   - every chunk a list holds is interned;
//   - every chunk the pool ever allocated is either interned or on its
//     free list, once, and a free chunk's count is zero;
//   - every stamp leaf the pool ever allocated is either held by one of
//     the lists, once, or on its free list, once, all zero.
//
// It returns nil when the pool is consistent and a descriptive error for
// the first violation found.
func (p *ChunkPool) CheckInvariants(lists []*PeerList) error {
	held := make(map[*chunk]int32)
	var leaves []*leaf
	for _, pl := range lists {
		for k := range pl.dir {
			held[pl.dir[k].c]++
		}
		for k := range pl.stamps.dir {
			leaves = append(leaves, pl.stamps.dir[k].leaf)
		}
	}
	var interned []*chunk
	for b, head := range p.index {
		for c := head; c != nil; c = c.next {
			interned = append(interned, c)
			h := c.hash
			if err := checkChunk(c, true); err != nil {
				return fmt.Errorf("interned chunk %#x: %w", h, err)
			}
			switch got := hashEntries(c.entries()); {
			case got != h || h&uint64(len(p.index)-1) != uint64(b):
				return fmt.Errorf("chunk interned as %#x in bucket %d of %d hashes to %#x", h, b, len(p.index), got)
			case c.refs <= 0:
				return fmt.Errorf("interned chunk %#x counts %d holders", h, c.refs)
			case c.refs != held[c]:
				return fmt.Errorf("interned chunk %#x counts %d holders, the lists hold it %d times", h, c.refs, held[c])
			}
			if _, ok := held[c]; !ok {
				return fmt.Errorf("chunk %#x is interned twice", h)
			}
			delete(held, c)
		}
	}
	if len(held) > 0 {
		return fmt.Errorf("the lists hold %d chunks the pool has not interned", len(held))
	}
	if len(interned) != p.interned {
		return fmt.Errorf("index chains %d chunks, counts %d", len(interned), p.interned)
	}
	if err := p.chunks.Check("chunk", interned, func(c *chunk) error {
		if c.refs != 0 {
			return fmt.Errorf("a free chunk counts %d holders", c.refs)
		}
		return nil
	}); err != nil {
		return err
	}
	return p.leaves.Check("leaf record", leaves, func(l *leaf) error {
		if l.s != ([leafCap]stamp{}) {
			return fmt.Errorf("a free stamp leaf holds stamps")
		}
		return nil
	})
}

// CheckInvariants verifies the Node's protocol invariants on top of the
// peer list's structural ones:
//
//   - the level is within [0, cfg.MaxLevel] and the cached eigenstring is
//     exactly EigenstringOf(self, level), which contains the node's own
//     ID (the prefix property: a node is a member of its own audience);
//   - every held pointer is another node inside the eigenstring — the
//     peer list is precisely the node's view of its audience;
//   - the top-node list is within its configured cap and holds no
//     duplicates and not the node itself;
//   - every top, and every top and part of the part table, has a level
//     or length of at most nodeid.Bits, as every held pointer has (the
//     peer list's own check);
//   - the ring successor is well-defined: a joined node with a non-empty
//     peer list can always name its clockwise neighbour;
//   - each deadline queue keeps its rules: deadlines never decrease from
//     the head, and a queue holding a live entry has its timer armed
//     outside the tick;
//   - each pending send has exactly one entry in a queue of ack ids: a
//     ring heartbeat in the probe-wait queue, due no later than now +
//     ProbeTimeout, any other send in the ack queue, due no later than
//     now + AckTimeout;
//   - the dedup table keeps its rules (dedupTable.check): its counts
//     match its slots, and every record is reached by its own probe;
//   - each pending send's continuation is well formed, and at most one
//     ring heartbeat is pending, the one probeID names (checkSends);
//   - the join callback is set exactly while the node joins, and a
//     stopped node holds nothing (checkPhase).
func (n *Node) CheckInvariants() error {
	if err := n.peers.CheckInvariants(); err != nil {
		return err
	}
	level := int(n.self.Level)
	if level > n.cfg.MaxLevel {
		return fmt.Errorf("level %d above MaxLevel %d", level, n.cfg.MaxLevel)
	}
	if want := nodeid.EigenstringOf(n.self.ID, level); n.eigen != want {
		return fmt.Errorf("eigenstring drift: have %v, level %d implies %v", n.eigen, level, want)
	}
	if !n.eigen.Contains(n.self.ID) {
		return fmt.Errorf("eigenstring %v does not contain own ID %v", n.eigen, n.self.ID)
	}
	for k := range n.peers.dir {
		for _, e := range n.peers.entries(k) {
			if e.id == n.self.ID {
				return fmt.Errorf("peer list contains own ID %v", e.id)
			}
			if !n.eigen.Contains(e.id) {
				return fmt.Errorf("peer %v outside eigenstring %v", e.id, n.eigen)
			}
		}
	}
	if len(n.topList) > n.cfg.TopListSize {
		return fmt.Errorf("top-node list has %d entries, cap is %d", len(n.topList), n.cfg.TopListSize)
	}
	for _, row := range n.crossTop {
		if row.part.Len > nodeid.Bits {
			return fmt.Errorf("part table row of length %d beyond nodeid.Bits", row.part.Len)
		}
		if err := checkLevels("cross-part top", row.tops); err != nil {
			return err
		}
	}
	if err := checkLevels("top", n.topList); err != nil {
		return err
	}
	topSeen := make(map[nodeid.ID]bool, len(n.topList))
	for _, p := range n.topList {
		if p.ID == n.self.ID {
			return fmt.Errorf("top-node list contains own ID %v", p.ID)
		}
		if topSeen[p.ID] {
			return fmt.Errorf("top-node list holds %v twice", p.ID)
		}
		topSeen[p.ID] = true
	}
	if n.phase == phaseJoined && n.peers.Len() > 0 {
		if _, ok := n.peers.Successor(n.self.ID, nil); !ok {
			return fmt.Errorf("ring successor undefined with %d peers held", n.peers.Len())
		}
	}
	if err := n.dedup.check(); err != nil {
		return fmt.Errorf("dedup table: %w", err)
	}
	if err := n.checkSends(); err != nil {
		return err
	}
	if err := n.checkQueues(); err != nil {
		return err
	}
	return n.checkPhase()
}

// checkPhase is CheckInvariants' phase clause: the join callback is set
// exactly while the node joins, and a stopped node holds nothing.
func (n *Node) checkPhase() error {
	if (n.joinDone != nil) != (n.phase == phaseJoining) {
		return fmt.Errorf("join callback set %v in phase %d", n.joinDone != nil, n.phase)
	}
	if n.phase != phaseStopped {
		return nil
	}
	for _, c := range []struct {
		what string
		held bool
	}{
		{"a pending send", n.pending.slots != nil},
		{"a queued deadline", n.acks.len()+n.hops.len()+n.probeWaits.len() > 0},
		{"an armed timer", slices.ContainsFunc(n.timerSlots(), (*timerSlot).armed)},
		{"a dedup record", n.dedup.slots != nil},
		{"a peer list", n.peers.dir != nil || n.peers.stamps.dir != nil || n.peers.info != nil},
		{"a top list", n.topList != nil},
		{"a part table", n.crossTop != nil},
	} {
		if c.held {
			return fmt.Errorf("stopped node holds %s", c.what)
		}
	}
	return nil
}

// checkSends is CheckInvariants' continuation clause: every pending send
// has a row in sendRules; a join kind is pending only during a join, one
// at a time; a ring heartbeat is pending only as the one probeID names,
// so one probe chain runs at a time; and a kind that walks addresses its
// first candidate, any other kind its target.
func (n *Node) checkSends() error {
	joins := 0
	for _, p := range n.pending.slots {
		if p == nil {
			continue
		}
		if int(p.kind) >= len(sendRules) {
			return fmt.Errorf("pending send %d has no rule for kind %d", p.id, p.kind)
		}
		if p.kind == sendProbe && p.id != n.probeID {
			return fmt.Errorf("ring heartbeat %d pending beside the chain's, %d", p.id, n.probeID)
		}
		rule, to := sendRules[p.kind], p.target
		if rule.join {
			if joins++; joins > 1 || n.phase != phaseJoining {
				return fmt.Errorf("join send %d pending (%d of them) in phase %d", p.id, joins, n.phase)
			}
		}
		if rule.walks && len(p.cands) > 0 {
			to = p.cands[0]
		}
		if to.Addr != p.msg.To || (p.report != nil) != (p.kind == sendReportRefresh) {
			return fmt.Errorf("pending send %d of kind %d to %v continues at %v, holding a report %v", p.id, p.kind, p.msg.To, to.Addr, p.report != nil)
		}
	}
	return nil
}

// checkLevels is CheckInvariants' level clause for a list of top
// pointers; what names the list in the error.
func checkLevels(what string, ps []wire.Pointer) error {
	for _, p := range ps {
		if int(p.Level) > nodeid.Bits {
			return fmt.Errorf("%s %v has level %d beyond nodeid.Bits", what, p.ID, p.Level)
		}
	}
	return nil
}

// checkQueues is CheckInvariants' deadline-queue clause.
func (n *Node) checkQueues() error {
	if err := n.acks.check(); err != nil {
		return fmt.Errorf("ack queue: %w", err)
	}
	if err := n.hops.check(); err != nil {
		return fmt.Errorf("hop queue: %w", err)
	}
	if err := n.probeWaits.check(); err != nil {
		return fmt.Errorf("probe-wait queue: %w", err)
	}
	held := 0
	for i, p := range n.pending.slots {
		if p == nil {
			continue
		}
		if held++; p.id&uint64(len(n.pending.slots)-1) != uint64(i) {
			return fmt.Errorf("pending send %d sits in ring slot %d of %d", p.id, i, len(n.pending.slots))
		}
	}
	if held != n.pending.n {
		return fmt.Errorf("pending ring holds %d sends, counts %d", held, n.pending.n)
	}
	queued := make(map[uint64]int, n.pending.n)
	var err error
	for _, w := range []struct {
		q             *deadlineQueue[uint64]
		probes        bool
		name, timeout string
		limit         des.Time
	}{
		{&n.acks, false, "ack queue", "AckTimeout", n.env.Now() + n.cfg.AckTimeout},
		{&n.probeWaits, true, "probe-wait queue", "ProbeTimeout", n.env.Now() + n.cfg.ProbeTimeout},
	} {
		w.q.each(func(e *deadlined[uint64]) {
			p := n.pending.get(e.v)
			if err != nil || p == nil {
				return
			}
			queued[e.v]++
			switch {
			case (p.kind == sendProbe) != w.probes:
				err = fmt.Errorf("pending send %d of kind %d waits in the %s", e.v, p.kind, w.name)
			case queued[e.v] > 1:
				err = fmt.Errorf("pending send %d is queued twice", e.v)
			case e.at > w.limit:
				err = fmt.Errorf("pending send %d times out at %v, after now + %s = %v", e.v, e.at, w.timeout, w.limit)
			}
		})
	}
	if err != nil {
		return err
	}
	if len(queued) != n.pending.n {
		return fmt.Errorf("%d sends pending, %d of them in the ack queue or the probe waits", n.pending.n, len(queued))
	}
	return nil
}

// CheckStorage verifies the pool's queue and send storage against
// nodes, which must be every node the pool serves, stopped ones
// included: each node's queues keep their segment chains, every queue
// segment and every pending-send record the pool ever allocated is
// either held by exactly one of the nodes' queues or pending rings (or
// as the report of a pending send), once, or sits on the pool's free
// list, once, and every free pending-ring
// slot array is empty, kept under its size and held by no node and no
// other free entry.
//
// It returns nil when the storage is consistent and a descriptive error
// for the first violation found.
func (p *ChunkPool) CheckStorage(nodes []*Node) error {
	for _, n := range nodes {
		if n.peers.pool != p || n.pool != p {
			return fmt.Errorf("node %v is served by another pool", n.self.ID)
		}
	}
	acks := func(n *Node) *deadlineQueue[uint64] { return &n.acks }
	waits := func(n *Node) *deadlineQueue[uint64] { return &n.probeWaits }
	if err := checkSegments(&p.ackSegs, queuesOf(nodes, acks, waits)); err != nil {
		return fmt.Errorf("ack and probe-wait queues: %w", err)
	}
	if err := checkSegments(&p.hopSegs, queuesOf(nodes, func(n *Node) *deadlineQueue[forwardHop] { return &n.hops })); err != nil {
		return fmt.Errorf("hop queues: %w", err)
	}
	var sends []*pendingSend
	held := make(map[**pendingSend]bool, len(nodes))
	for _, n := range nodes {
		if len(n.pending.slots) > 0 {
			if held[&n.pending.slots[0]] {
				return fmt.Errorf("node %v holds another node's pending ring", n.self.ID)
			}
			held[&n.pending.slots[0]] = true
		}
		for _, r := range n.pending.slots {
			for ; r != nil; r = r.report {
				sends = append(sends, r)
			}
		}
	}
	for k, free := range p.rings {
		for _, slots := range free {
			switch {
			case len(slots) != minPendingRing<<k:
				return fmt.Errorf("a free pending ring of %d slots is kept as %d", len(slots), minPendingRing<<k)
			case held[&slots[0]]:
				return fmt.Errorf("a free pending ring of %d slots is held by a node", len(slots))
			case slices.ContainsFunc(slots, func(s *pendingSend) bool { return s != nil }):
				return fmt.Errorf("a free pending ring of %d slots holds a send", len(slots))
			}
			held[&slots[0]] = true
		}
	}
	return p.sends.Check("pending send", sends, nil)
}

// queuesOf returns the queues of one entry type of each node.
func queuesOf[T any](nodes []*Node, queues ...func(*Node) *deadlineQueue[T]) []*deadlineQueue[T] {
	qs := make([]*deadlineQueue[T], 0, len(nodes)*len(queues))
	for _, n := range nodes {
		for _, q := range queues {
			qs = append(qs, q(n))
		}
	}
	return qs
}

// checkSegments is CheckStorage's clause for one segment pool, which
// must serve exactly queues.
func checkSegments[T any](p *freelist.List[segment[T], *segment[T]], queues []*deadlineQueue[T]) error {
	var held []*segment[T]
	for i, q := range queues {
		if err := q.checkChain(); err != nil {
			return fmt.Errorf("queue %d: %w", i, err)
		}
		for s := q.head; s != nil; s = s.next {
			held = append(held, s)
		}
	}
	return p.Check("segment", held, nil)
}
