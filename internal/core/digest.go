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
	"slices"
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
//   - the part table (§4.4) in its own order, each row's top IDs sorted
//     and a row emptied by failed refreshes included;
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
	for k := range n.peers.dir {
		for _, e := range n.peers.entries(k) {
			b = appendID(b, e.id)
			b = append(b, e.level)
		}
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

	// The part table, already in canonical part order; IDs sorted.
	b = appendU64(b, uint64(len(n.crossTop)))
	for _, r := range n.crossTop {
		b = appendID(b, r.part.Prefix)
		b = appendU64(b, uint64(r.part.Len))
		ids := make([]nodeid.ID, 0, len(r.tops))
		for _, p := range r.tops {
			ids = append(ids, p.ID)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
		b = appendU64(b, uint64(len(ids)))
		for _, id := range ids {
			b = appendID(b, id)
		}
	}

	// Dedup state: the subjects with a sequence, then the dead ones.
	recs := make([]dedupSlot, 0, n.dedup.n)
	dead := 0
	for _, s := range n.dedup.slots {
		if s.r != (dedupRec{}) {
			recs = append(recs, s)
			if s.r.dead {
				dead++
			}
		}
	}
	slices.SortFunc(recs, func(a, b dedupSlot) int { return a.id.Compare(b.id) })
	b = appendU64(b, uint64(n.dedup.sequenced))
	for _, s := range recs {
		if s.r.seq != 0 {
			b = appendID(b, s.id)
			b = appendU64(b, s.r.seq)
		}
	}
	b = appendU64(b, uint64(dead))
	for _, s := range recs {
		if s.r.dead {
			b = appendID(b, s.id)
		}
	}

	// Pending-send signature.
	type sig struct {
		typ uint8
		to  uint64
	}
	sigs := make([]sig, 0, n.pending.n)
	for _, p := range n.pending.slots {
		if p != nil {
			sigs = append(sigs, sig{typ: uint8(p.msg.Type), to: uint64(p.msg.To)})
		}
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
