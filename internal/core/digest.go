package core

// Canonical protocol-state digests for the model checker (internal/
// model). Two states with equal digests are treated as the same node of
// the schedule-space search, so the encoding must be canonical: anything
// whose representation depends on arrival order (top-node lists, map
// iteration) is sorted first, and anything that legitimately varies
// between equivalent interleavings (virtual timestamps, ack-ID counters)
// is deliberately left out. What remains is exactly the state the
// paper's claims quantify over — membership view, level, ring structure
// — plus the dedup/pending bookkeeping that steers future transitions.

import (
	"encoding/binary"
	"sort"

	"peerwindow/internal/nodeid"
)

// appendU64 appends v big-endian.
func appendU64(b []byte, v uint64) []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	return append(b, buf[:]...)
}

// appendID appends a nodeid canonically.
func appendID(b []byte, id nodeid.ID) []byte {
	b = appendU64(b, id.Hi)
	return appendU64(b, id.Lo)
}

// AppendDigest appends a canonical encoding of the node's protocol state
// to b and returns the extended slice. The encoding covers:
//
//   - identity: address, nodeId, level, attached info, joined/stopped,
//     the warm-up target and the node's own announcement sequence;
//   - the peer list as ordered (nodeId, level) pairs — the list is kept
//     sorted by construction, so insertion order cannot leak in;
//   - the ring successor's nodeId (the §4.1 probe target);
//   - the top-node list as (nodeId, level) pairs sorted by nodeId —
//     top-list order is merge-history, not protocol state;
//   - cross-part top pointers (§4.4), keyed by sorted part eigenstring;
//   - the event-dedup state: seen (nodeId, seq) pairs and dead nodeIds,
//     both sorted;
//   - a pending-send signature: sorted (type, destination) pairs of the
//     reliable sends still awaiting acks (ack IDs and retry timers are
//     excluded — they differ between equivalent interleavings).
//
// Virtual timestamps (firstSeen/lastSeen, meters, probe deadlines) are
// excluded by design: the digest quotients the state space over exact
// timing, which is what makes schedule-space deduplication effective.
func (n *Node) AppendDigest(b []byte) []byte {
	// Identity block.
	b = appendU64(b, uint64(n.self.Addr))
	b = appendID(b, n.self.ID)
	b = append(b, n.self.Level, boolByte(n.joined), boolByte(n.stopped))
	b = appendU64(b, uint64(int64(n.warmTarget)))
	b = appendU64(b, n.seq)
	b = appendU64(b, uint64(len(n.self.Info)))
	b = append(b, n.self.Info...)

	// Peer list (sorted by construction).
	b = appendU64(b, uint64(n.peers.Len()))
	for i := 0; i < n.peers.Len(); i++ {
		p := n.peers.At(i)
		b = appendID(b, p.ID)
		b = append(b, p.Level)
	}

	// Ring successor.
	if succ, ok := n.peers.Successor(n.self.ID, nil); ok {
		b = append(b, 1)
		b = appendID(b, succ.ID)
	} else {
		b = append(b, 0)
	}

	// Top-node list, canonicalized by nodeId.
	tops := make([]int, len(n.topList))
	for i := range tops {
		tops[i] = i
	}
	sort.Slice(tops, func(i, j int) bool {
		return n.topList[tops[i]].ID.Less(n.topList[tops[j]].ID)
	})
	b = appendU64(b, uint64(len(tops)))
	for _, i := range tops {
		b = appendID(b, n.topList[i].ID)
		b = append(b, n.topList[i].Level)
	}

	// Cross-part tops, canonicalized by part then nodeId.
	parts := n.sortedCrossParts()
	b = appendU64(b, uint64(len(parts)))
	for _, part := range parts {
		b = appendID(b, part.Prefix)
		b = appendU64(b, uint64(part.Len))
		ids := make([]nodeid.ID, 0, len(n.crossTop[part]))
		for _, p := range n.crossTop[part] {
			ids = append(ids, p.ID)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
		b = appendU64(b, uint64(len(ids)))
		for _, id := range ids {
			b = appendID(b, id)
		}
	}

	// Dedup state.
	seen := make([]nodeid.ID, 0, len(n.seen))
	for id := range n.seen {
		seen = append(seen, id)
	}
	sort.Slice(seen, func(i, j int) bool { return seen[i].Less(seen[j]) })
	b = appendU64(b, uint64(len(seen)))
	for _, id := range seen {
		b = appendID(b, id)
		b = appendU64(b, n.seen[id])
	}
	dead := make([]nodeid.ID, 0, len(n.dead))
	for id := range n.dead {
		dead = append(dead, id)
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].Less(dead[j]) })
	b = appendU64(b, uint64(len(dead)))
	for _, id := range dead {
		b = appendID(b, id)
	}

	// Pending-send signature.
	type sig struct {
		typ uint8
		to  uint64
	}
	sigs := make([]sig, 0, len(n.pending))
	for _, p := range n.pending {
		sigs = append(sigs, sig{typ: uint8(p.msg.Type), to: uint64(p.msg.To)})
	}
	sort.Slice(sigs, func(i, j int) bool {
		if sigs[i].typ != sigs[j].typ {
			return sigs[i].typ < sigs[j].typ
		}
		return sigs[i].to < sigs[j].to
	})
	b = appendU64(b, uint64(len(sigs)))
	for _, s := range sigs {
		b = append(b, s.typ)
		b = appendU64(b, s.to)
	}
	return b
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}
