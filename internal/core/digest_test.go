package core

import (
	"bytes"
	"testing"

	"peerwindow/internal/wire"
)

// digestNode builds a restored node from the given peer and top slices.
func digestNode(seed uint64, peers, tops []wire.Pointer) *Node {
	env := newFakeEnv(seed)
	n := NewNode(quietConfig(), env, Observer{}, ptrAt("0000", 2, 1))
	n.Restore(2, peers, tops)
	return n
}

// permute returns a copy of ps with a fixed non-trivial reordering.
func permute(ps []wire.Pointer) []wire.Pointer {
	out := make([]wire.Pointer, 0, len(ps))
	for i := len(ps) - 1; i >= 0; i-- {
		out = append(out, ps[i])
	}
	return out
}

// TestDigestCanonicality: the digest is a function of protocol state, not
// of the order state arrived in. Two nodes restored from permuted peer
// and top-node slices must produce byte-identical digests.
func TestDigestCanonicality(t *testing.T) {
	peers := []wire.Pointer{
		ptrAt("0001", 2, 2),
		ptrAt("0010", 2, 3),
		ptrAt("0011", 2, 4),
		ptrAt("0110", 2, 5),
	}
	tops := []wire.Pointer{
		ptrAt("1000", 0, 6),
		ptrAt("0100", 0, 7),
	}
	a := digestNode(1, peers, tops)
	b := digestNode(1, permute(peers), permute(tops))
	da := a.AppendDigest(nil)
	db := b.AppendDigest(nil)
	if !bytes.Equal(da, db) {
		t.Fatalf("digest depends on insertion order:\n a=%x\n b=%x", da, db)
	}
}

// TestDigestSensitivity: states that differ in membership or level must
// not collide.
func TestDigestSensitivity(t *testing.T) {
	peers := []wire.Pointer{ptrAt("0001", 2, 2), ptrAt("0010", 2, 3)}
	tops := []wire.Pointer{ptrAt("1000", 0, 6)}
	base := digestNode(1, peers, tops).AppendDigest(nil)

	fewer := digestNode(1, peers[:1], tops).AppendDigest(nil)
	if bytes.Equal(base, fewer) {
		t.Fatal("digest unchanged after removing a peer")
	}

	env := newFakeEnv(1)
	n := NewNode(quietConfig(), env, Observer{}, ptrAt("0000", 1, 1))
	n.Restore(1, []wire.Pointer{
		{Addr: 2, ID: peers[0].ID, Level: 1},
		{Addr: 3, ID: peers[1].ID, Level: 1},
	}, tops)
	shifted := n.AppendDigest(nil)
	if bytes.Equal(base, shifted) {
		t.Fatal("digest unchanged after a level shift")
	}
}

// TestDigestAppends: AppendDigest must extend the passed slice, leaving
// the prefix intact, so callers can concatenate per-node digests.
func TestDigestAppends(t *testing.T) {
	n := digestNode(1, []wire.Pointer{ptrAt("0001", 2, 2)}, nil)
	prefix := []byte{0xaa, 0xbb}
	out := n.AppendDigest(prefix)
	if !bytes.Equal(out[:2], prefix) {
		t.Fatalf("prefix clobbered: %x", out[:2])
	}
	if len(out) <= 2 {
		t.Fatal("nothing appended")
	}
}

// TestDigestNamesTheContinuation: pending sends of one type to one
// destination whose continuations differ, by kind or by one-shot flag,
// have different futures, so the nodes holding them must not collide.
func TestDigestNamesTheContinuation(t *testing.T) {
	top := ptrAt("1000", 0, 6)
	pending := func(kind sendKind, typ wire.MsgType, once bool) []byte {
		n := digestNode(1, []wire.Pointer{ptrAt("0001", 2, 2)}, []wire.Pointer{top})
		p := n.track(kind, wire.Message{Type: typ, To: top.Addr}, top)
		p.once = once
		n.arm(p)
		return n.AppendDigest(nil)
	}
	if !bytes.Equal(pending(sendJoinTops, wire.MsgTopListReq, false), pending(sendJoinTops, wire.MsgTopListReq, false)) {
		t.Fatal("equal states digest differently")
	}
	for name, pair := range map[string][2][]byte{
		"join step 1, §4.5 refresh": {pending(sendJoinTops, wire.MsgTopListReq, false), pending(sendReportRefresh, wire.MsgTopListReq, false)},
		"join download, reconcile":  {pending(sendJoinPeers, wire.MsgPeerListReq, false), pending(sendReconcile, wire.MsgPeerListReq, false)},
		"reconcile, raise":          {pending(sendReconcile, wire.MsgPeerListReq, false), pending(sendRaise, wire.MsgPeerListReq, false)},
		"report, refreshed report":  {pending(sendReport, wire.MsgReport, false), pending(sendReport, wire.MsgReport, true)},
	} {
		if bytes.Equal(pair[0], pair[1]) {
			t.Errorf("%s: equal digests", name)
		}
	}
}
