package core

import (
	"cmp"
	"slices"

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

// crossPart is one row of the part table (Node.crossTop): another part,
// named by its eigenstring, and up to t pointers to its top nodes,
// strongest first. A row whose tops have all been dropped stays; the
// digest counts it.
type crossPart struct {
	part nodeid.Eigenstring
	tops []wire.Pointer
}

// findPart returns where part's row is, or would go, in the part table,
// and whether it is there. The table is ordered by eigenstring length,
// then prefix: the order the refresh draws from and the digest writes.
func (n *Node) findPart(part nodeid.Eigenstring) (int, bool) {
	return slices.BinarySearchFunc(n.crossTop, part, func(r crossPart, p nodeid.Eigenstring) int {
		return cmp.Or(cmp.Compare(r.part.Len, p.Len), r.part.Prefix.Compare(p.Prefix))
	})
}

// rememberCrossPart stores up to t pointers to (presumed) top nodes of
// another part. Strongest first; duplicates collapse.
func (n *Node) rememberCrossPart(part nodeid.Eigenstring, ps []wire.Pointer) {
	if len(ps) == 0 {
		return
	}
	i, ok := n.findPart(part)
	if !ok {
		n.crossTop = slices.Insert(n.crossTop, i, crossPart{part: part})
	}
	merged := unionByID(ps, n.crossTop[i].tops)
	slices.SortStableFunc(merged, func(a, b wire.Pointer) int { return cmp.Compare(a.Level, b.Level) })
	n.crossTop[i].tops = merged[:min(len(merged), n.cfg.TopListSize)]
}

// CrossPartTops returns a copy of the remembered top nodes for a part,
// nil when there are none.
func (n *Node) CrossPartTops(part nodeid.Eigenstring) []wire.Pointer {
	if i, ok := n.findPart(part); ok {
		return append([]wire.Pointer(nil), n.crossTop[i].tops...)
	}
	return nil
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
	best := make([]wire.Pointer, 0, n.cfg.TopListSize)
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
// our part, then restart step 2 against them, referred (at most once per
// join, to avoid referral loops).
func (n *Node) crossPartJoin(z wire.Pointer) {
	msg := wire.Message{Type: wire.MsgTopListReq, To: z.Addr, PartBits: z.Level, PartPrefix: n.self.ID.Bytes()}
	n.arm(n.track(sendJoinRefer, msg, z))
}

func (n *Node) joinReferAnswered(_ *pendingSend, resp wire.Message) { n.joinStep2(resp.Pointers, true) }

// requestedPart is the part a MsgTopListReq with PartBits > 0 asks for.
func requestedPart(m wire.Message) nodeid.Eigenstring {
	part, _ := nodeid.FromBytes(m.PartPrefix[:]) // 16 bytes: never fails
	return nodeid.EigenstringOf(part, int(m.PartBits))
}

// refreshCrossTop implements the §4.5 lazy maintenance: "when a top node
// T works for another node's joining process, it chooses a live pointer
// from its top-node list and asks the corresponding node for t−1
// pointers to top nodes of that part." It refreshes one remembered part
// per trigger, drawn from the node's own random stream, with a single
// attempt. The request names the part, for crossRefreshAnswered to
// filter by; a target inside the part answers with its own part's tops
// either way (handleTopListReq), and every remembered top is inside its
// part.
func (n *Node) refreshCrossTop() {
	if !n.isTopNode() {
		return
	}
	var live []crossPart
	for _, r := range n.crossTop {
		if len(r.tops) > 0 {
			live = append(live, r)
		}
	}
	if len(live) == 0 {
		return
	}
	r := live[n.env.Rand().Intn(len(live))]
	target := r.tops[n.env.Rand().Intn(len(r.tops))]
	n.m.topListRefreshes.Inc()
	msg := wire.Message{Type: wire.MsgTopListReq, To: target.Addr, PartBits: uint8(r.part.Len), PartPrefix: r.part.Prefix.Bytes()}
	p := n.track(sendCrossRefresh, msg, target)
	p.attempts = 1
	n.arm(p)
}

func (n *Node) crossRefreshAnswered(p *pendingSend, resp wire.Message) {
	// Keep only pointers that really belong to that part.
	part := requestedPart(p.msg)
	keep := resp.Pointers[:0]
	for _, q := range resp.Pointers {
		if part.Contains(q.ID) {
			keep = append(keep, q)
		}
	}
	n.rememberCrossPart(part, keep)
}

// crossRefreshFailed drops the dead pointer; the rest of the part's row
// remains.
func (n *Node) crossRefreshFailed(p *pendingSend) {
	if i, ok := n.findPart(requestedPart(p.msg)); ok {
		n.crossTop[i].tops = dropID(n.crossTop[i].tops, p.target.ID)
	}
}
