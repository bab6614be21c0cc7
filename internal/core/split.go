package core

import (
	"sort"

	"peerwindow/internal/nodeid"
	"peerwindow/internal/trace"
	"peerwindow/internal/wire"
)

// This file implements the split-system support of §4.4/§4.5. When no
// node can afford level 0, the system partitions into independent parts
// by leading prefix; the strongest nodes of each part act as its top
// nodes. A top node's top-node list then holds pointers to top nodes of
// *other* parts (t per part) so that a node bootstrapping through the
// wrong part can still find its own: X asks a top node Z of the
// bootstrap's part, and "Z's top-node list must contain t top nodes of
// X's part".

// rememberCrossPart stores up to t pointers to (presumed) top nodes of
// another part. Strongest first; duplicates collapse.
func (n *Node) rememberCrossPart(part nodeid.Eigenstring, ps []wire.Pointer) {
	if len(ps) == 0 {
		return
	}
	if n.crossTop == nil {
		n.crossTop = make(map[nodeid.Eigenstring][]wire.Pointer)
	}
	merged := append([]wire.Pointer(nil), ps...)
	for _, old := range n.crossTop[part] {
		dup := false
		for _, q := range merged {
			if q.ID == old.ID {
				dup = true
				break
			}
		}
		if !dup {
			merged = append(merged, old)
		}
	}
	// Strongest (smallest level) first, stable.
	for i := 1; i < len(merged); i++ {
		for j := i; j > 0 && merged[j].Level < merged[j-1].Level; j-- {
			merged[j], merged[j-1] = merged[j-1], merged[j]
		}
	}
	if len(merged) > n.cfg.TopListSize {
		merged = merged[:n.cfg.TopListSize]
	}
	n.crossTop[part] = merged
}

// CrossPartTops returns the remembered top nodes for a part (for
// diagnostics and tests).
func (n *Node) CrossPartTops(part nodeid.Eigenstring) []wire.Pointer {
	return append([]wire.Pointer(nil), n.crossTop[part]...)
}

// captureSplitPointers runs when this node lowers its level while being
// a top node — the moment a split deepens. The pointers it is about to
// shed for the sibling part are that part's population; the strongest of
// them are its top nodes, and §4.4 requires us to remember t of them.
func (n *Node) captureSplitPointers(dropped []removedPeer, newEigen nodeid.Eigenstring) {
	if len(dropped) == 0 || newEigen.Len == 0 {
		return
	}
	sibling := newEigen.Sibling()
	var best []wire.Pointer
	minLevel := 256
	for i := range dropped {
		p := dropped[i].ptr
		if !sibling.Contains(p.ID) {
			continue
		}
		if int(p.Level) < minLevel {
			minLevel = int(p.Level)
			best = best[:0]
		}
		if int(p.Level) == minLevel && len(best) < n.cfg.TopListSize {
			best = append(best, p)
		}
	}
	n.m.splitCaptures.Inc()
	n.moment(trace.SpanSplitCapture, 0, len(best))
	n.rememberCrossPart(sibling, best)
}

// crossPartJoin continues a join whose answering top node Z turned out
// to belong to a different part than ours (§4.4): ask Z for top nodes of
// our part, then restart step 2 against them. It runs at most once per
// join to avoid referral loops.
func (n *Node) crossPartJoin(z wire.Pointer, done func(error)) {
	idb := n.self.ID.Bytes()
	msg := wire.Message{
		Type:     wire.MsgTopListReq,
		To:       z.Addr,
		PartBits: z.Level,
	}
	copy(msg.PartPrefix[:], idb[:])
	n.sendReliable(msg, n.cfg.RetryAttempts,
		func(resp wire.Message) {
			if len(resp.Pointers) == 0 {
				done(ErrJoinFailed)
				return
			}
			n.joinStep2Referred(resp.Pointers, done)
		},
		func() { done(ErrJoinFailed) },
	)
}

// sortedCrossParts returns the remembered parts ordered by eigenstring
// length, then prefix. Go randomizes map iteration, so anything that picks
// among the parts or serializes them goes through here.
func (n *Node) sortedCrossParts() []nodeid.Eigenstring {
	parts := make([]nodeid.Eigenstring, 0, len(n.crossTop))
	for part := range n.crossTop {
		parts = append(parts, part)
	}
	sort.Slice(parts, func(i, j int) bool {
		if parts[i].Len != parts[j].Len {
			return parts[i].Len < parts[j].Len
		}
		return parts[i].Prefix.Less(parts[j].Prefix)
	})
	return parts
}

// refreshCrossTop implements the §4.5 lazy maintenance: "when a top node
// T works for another node's joining process, it chooses a live pointer
// from its top-node list and asks the corresponding node for t−1
// pointers to top nodes of that part." It refreshes one remembered part
// per trigger, drawn from the node's own random stream.
func (n *Node) refreshCrossTop() {
	if !n.isTopNode() || len(n.crossTop) == 0 {
		return
	}
	parts := n.sortedCrossParts()
	live := parts[:0]
	for _, part := range parts {
		if len(n.crossTop[part]) > 0 {
			live = append(live, part)
		}
	}
	if len(live) == 0 {
		return
	}
	part := live[n.env.Rand().Intn(len(live))]
	ps := n.crossTop[part]
	target := ps[n.env.Rand().Intn(len(ps))]
	n.m.topListRefreshes.Inc()
	msg := wire.Message{Type: wire.MsgTopListReq, To: target.Addr}
	n.sendReliable(msg, 1,
		func(resp wire.Message) {
			// Keep only pointers that really belong to that part.
			keep := resp.Pointers[:0]
			for _, p := range resp.Pointers {
				if part.Contains(p.ID) {
					keep = append(keep, p)
				}
			}
			n.rememberCrossPart(part, keep)
		},
		func() {
			// Drop the dead pointer; the rest of the part list
			// remains.
			out := n.crossTop[part][:0]
			for _, p := range n.crossTop[part] {
				if p.ID != target.ID {
					out = append(out, p)
				}
			}
			n.crossTop[part] = out
		},
	)
}
