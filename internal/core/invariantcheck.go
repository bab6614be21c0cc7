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
//   - entries are in strictly ascending ID order (sorted, no duplicates);
//   - every entry's level is within [0, nodeid.Bits];
//   - the cached per-level histogram matches a recount;
//   - for every populated level, the cached first-entry index points at
//     the first entry of that level in ID order;
//   - the info table holds exactly the IDs whose slot is flagged as
//     carrying info, each with a non-empty value.
//
// It returns nil when the list is consistent and a descriptive error for
// the first violation found.
func (pl *PeerList) CheckInvariants() error {
	var levels [nodeid.Bits + 1]int32
	var firstAt [nodeid.Bits + 1]int32
	flagged := 0
	for i := range pl.slots {
		s := &pl.slots[i]
		if i > 0 && !pl.slots[i-1].id.Less(s.id) {
			return fmt.Errorf("peer list unsorted at index %d: %v is not above %v",
				i, s.id, pl.slots[i-1].id)
		}
		l := int(s.level)
		if l >= len(levels) {
			return fmt.Errorf("peer %v has level %d beyond nodeid.Bits", s.id, l)
		}
		if levels[l] == 0 {
			firstAt[l] = int32(i)
		}
		levels[l]++
		if s.hasInfo {
			flagged++
			if len(pl.info[s.id]) == 0 {
				return fmt.Errorf("peer %v is flagged as carrying info but the info table has none", s.id)
			}
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
		if levels[l] > 0 && firstAt[l] != pl.firstAt[l] {
			return fmt.Errorf("level index drift at level %d: first entry at %d, cached %d",
				l, firstAt[l], pl.firstAt[l])
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
//     peer list can always name its clockwise neighbour.
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
	for i := 0; i < n.peers.Len(); i++ {
		p := n.peers.At(i)
		if p.ID == n.self.ID {
			return fmt.Errorf("peer list contains own ID %v", p.ID)
		}
		if !n.eigen.Contains(p.ID) {
			return fmt.Errorf("peer %v outside eigenstring %v", p.ID, n.eigen)
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
	return nil
}
