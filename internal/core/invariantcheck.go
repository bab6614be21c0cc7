package core

// Structural invariant checkers for the protocol state. They are always
// compiled (so package core's own tests can corrupt unexported state and
// prove the checks bite); internal/invariant wraps them behind the
// pwinvariants build tag for deep checking after every applied event in
// the simulation harness. See docs/STATIC_ANALYSIS.md.

import (
	"fmt"

	"peerwindow/internal/nodeid"
)

// CheckInvariants verifies the PeerList's structural invariants:
//
//   - no leaf is empty, and none holds more than leafCap entries;
//   - the directory matches the leaves: each running count is the sum
//     of the counts up to it, each last ID is the leaf's last entry, and
//     every slot past a leaf's count is zero (a drifted count would hide
//     an entry or expose a stale one);
//   - IDs ascend across leaf boundaries;
//   - entries are in strictly ascending ID order (sorted, no duplicates);
//   - every entry's level is within [0, nodeid.Bits];
//   - the cached per-level histogram matches a recount;
//   - the info table holds exactly the IDs whose slot is flagged as
//     carrying info, each with a non-empty value.
//
// It returns nil when the list is consistent and a descriptive error for
// the first violation found.
func (pl *PeerList) CheckInvariants() error {
	var levels [nodeid.Bits + 1]int32
	end, flagged, i := int32(0), 0, 0
	for k := range pl.dir {
		r := &pl.dir[k]
		switch {
		case r.n <= 0:
			return fmt.Errorf("leaf %d is empty", k)
		case r.n > leafCap:
			return fmt.Errorf("leaf %d holds %d entries, over its capacity of %d", k, r.n, leafCap)
		}
		if end += r.n; r.end != end {
			return fmt.Errorf("directory drift at leaf %d: running count %d, leaves hold %d", k, r.end, end)
		}
		if r.last != r.s[r.n-1].id {
			return fmt.Errorf("directory drift at leaf %d: last ID %v, leaf ends at %v", k, r.last, r.s[r.n-1].id)
		}
		for _, s := range r.s[r.n:] {
			if s != (peerSlot{}) {
				return fmt.Errorf("directory drift at leaf %d: a slot past its %d entries is not zero", k, r.n)
			}
		}
		if k > 0 && !pl.dir[k-1].last.Less(r.s[0].id) {
			return fmt.Errorf("IDs do not ascend across leaves %d and %d: %v then %v",
				k-1, k, pl.dir[k-1].last, r.s[0].id)
		}
		ss := pl.slots(k)
		for j := range ss {
			s := &ss[j]
			if j > 0 && !ss[j-1].id.Less(s.id) {
				return fmt.Errorf("peer list unsorted at index %d: %v is not above %v",
					i, s.id, ss[j-1].id)
			}
			l := int(s.level)
			if l >= len(levels) {
				return fmt.Errorf("peer %v has level %d beyond nodeid.Bits", s.id, l)
			}
			levels[l]++
			if s.hasInfo {
				flagged++
				if len(pl.info[s.id]) == 0 {
					return fmt.Errorf("peer %v is flagged as carrying info but the info table has none", s.id)
				}
			}
			i++
		}
	}
	if len(pl.info) != flagged {
		return fmt.Errorf("info table holds %d entries for %d flagged peers", len(pl.info), flagged)
	}
	for l := range levels {
		if levels[l] != pl.levels[l] {
			return fmt.Errorf("level histogram drift at level %d: counted %d, cached %d",
				l, levels[l], pl.levels[l])
		}
	}
	return nil
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
//   - the ring successor is well-defined: a joined node with a non-empty
//     peer list can always name its clockwise neighbour;
//   - each deadline queue keeps its rules: deadlines never decrease from
//     the head, and a queue holding a live entry has its timer armed
//     outside the tick;
//   - each pending send has exactly one entry in the ack queue, due no
//     later than now + AckTimeout.
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
		for _, s := range n.peers.slots(k) {
			if s.id == n.self.ID {
				return fmt.Errorf("peer list contains own ID %v", s.id)
			}
			if !n.eigen.Contains(s.id) {
				return fmt.Errorf("peer %v outside eigenstring %v", s.id, n.eigen)
			}
		}
	}
	if len(n.topList) > n.cfg.TopListSize {
		return fmt.Errorf("top-node list has %d entries, cap is %d", len(n.topList), n.cfg.TopListSize)
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
	if n.joined && n.peers.Len() > 0 {
		if _, ok := n.peers.Successor(n.self.ID, nil); !ok {
			return fmt.Errorf("ring successor undefined with %d peers held", n.peers.Len())
		}
	}
	return n.checkQueues()
}

// checkQueues is CheckInvariants' deadline-queue clause.
func (n *Node) checkQueues() error {
	if err := n.acks.check(); err != nil {
		return fmt.Errorf("ack queue: %w", err)
	}
	if err := n.hops.check(); err != nil {
		return fmt.Errorf("hop queue: %w", err)
	}
	if err := n.defends.check(); err != nil {
		return fmt.Errorf("defend queue: %w", err)
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
	limit := n.env.Now() + n.cfg.AckTimeout
	for _, e := range n.acks.items[n.acks.head:] {
		if !n.awaited(e.v) {
			continue
		}
		if queued[e.v]++; queued[e.v] > 1 {
			return fmt.Errorf("pending send %d is queued twice", e.v)
		}
		if e.at > limit {
			return fmt.Errorf("pending send %d times out at %v, after now + AckTimeout = %v", e.v, e.at, limit)
		}
	}
	if len(queued) != n.pending.n {
		return fmt.Errorf("%d sends pending, %d of them in the ack queue", n.pending.n, len(queued))
	}
	return nil
}
