package core

import (
	"testing"

	"peerwindow/internal/des"
	"peerwindow/internal/nodeid"
	"peerwindow/internal/wire"
)

func TestCaptureSplitPointersOnLowerLevel(t *testing.T) {
	env := newFakeEnv(30)
	cfg := quietConfig()
	cfg.ShiftCheckInterval = 10 * des.Second
	cfg.MeterWindow = 20 * des.Second
	cfg.ThresholdBits = 100
	self := ptrAt("0000", 0, 1)
	// Sibling part members at different levels; the strongest are its
	// top nodes.
	sibTop1 := ptrAt("1000", 1, 10)
	sibTop2 := ptrAt("1100", 1, 11)
	sibWeak := ptrAt("1010", 2, 12)
	same := ptrAt("0100", 1, 13)
	n := NewNode(cfg, env, Observer{}, self)
	n.Restore(0, []wire.Pointer{sibTop1, sibTop2, sibWeak, same}, nil)
	env.take()
	// Overload the meter so the node shifts 0 → 1.
	for i := 0; i < 100; i++ {
		env.run(des.Second)
		n.HandleMessage(wire.Message{Type: wire.MsgHeartbeat, From: 13, To: 1, AckID: uint64(i)})
	}
	env.run(cfg.MeterWindow + 2*cfg.ShiftCheckInterval)
	if n.Level() != 1 {
		t.Fatalf("node at level %d, want 1", n.Level())
	}
	sibling, _ := nodeid.ParseEigenstring("1")
	tops := n.CrossPartTops(sibling)
	if len(tops) != 2 {
		t.Fatalf("remembered %d sibling tops, want the 2 strongest", len(tops))
	}
	for _, p := range tops {
		if p.Level != 1 {
			t.Fatalf("remembered a non-top pointer: %+v", p)
		}
	}
}

func TestCrossPartTopListServed(t *testing.T) {
	env := newFakeEnv(31)
	self := ptrAt("0000", 1, 1) // top node of part "0" (no stronger peers)
	n := NewNode(quietConfig(), env, Observer{}, self)
	n.Restore(1, []wire.Pointer{ptrAt("0100", 1, 10)}, nil)
	env.take()
	part1, _ := nodeid.ParseEigenstring("1")
	n.rememberCrossPart(part1, []wire.Pointer{ptrAt("1000", 1, 20), ptrAt("1100", 1, 21)})

	// A joiner in part "1" asks for its part's tops.
	joinerID, _ := nodeid.FromBitString("1011")
	msg := wire.Message{Type: wire.MsgTopListReq, From: 99, To: 1, AckID: 3, PartBits: 1}
	idb := joinerID.Bytes()
	copy(msg.PartPrefix[:], idb[:])
	n.HandleMessage(msg)
	resp := env.takeType(wire.MsgTopListResp)
	if len(resp) != 1 || len(resp[0].Pointers) != 2 {
		t.Fatalf("cross-part response wrong: %+v", resp)
	}
	for _, p := range resp[0].Pointers {
		if !part1.Contains(p.ID) {
			t.Fatalf("cross-part response contains wrong-part pointer %v", p.ID)
		}
	}

	// Asking for our own part via PartBits still works.
	ownID, _ := nodeid.FromBitString("0111")
	msg2 := wire.Message{Type: wire.MsgTopListReq, From: 99, To: 1, AckID: 4, PartBits: 1}
	idb2 := ownID.Bytes()
	copy(msg2.PartPrefix[:], idb2[:])
	n.HandleMessage(msg2)
	resp = env.takeType(wire.MsgTopListResp)
	if len(resp) != 1 || len(resp[0].Pointers) == 0 || resp[0].Pointers[0].ID != self.ID {
		t.Fatalf("own-part response wrong: %+v", resp)
	}
}

func TestRememberCrossPartDedupsAndCaps(t *testing.T) {
	env := newFakeEnv(32)
	n := newTopNode(t, env)
	part, _ := nodeid.ParseEigenstring("1")
	var ps []wire.Pointer
	for i := 0; i < 12; i++ {
		bits := "1000"
		if i%2 == 1 {
			bits = "1100"
		}
		p := ptrAt(bits, 1+i%3, wire.Addr(20+i))
		p.ID = p.ID.Add(nodeid.ID{Lo: uint64(i)}) // distinct IDs
		ps = append(ps, p)
	}
	n.rememberCrossPart(part, ps)
	n.rememberCrossPart(part, ps[:3]) // duplicates collapse
	tops := n.CrossPartTops(part)
	if len(tops) > n.cfg.TopListSize {
		t.Fatalf("cross-part list %d exceeds t=%d", len(tops), n.cfg.TopListSize)
	}
	// Strongest first.
	for i := 1; i < len(tops); i++ {
		if tops[i].Level < tops[i-1].Level {
			t.Fatal("cross-part list not strongest-first")
		}
	}
}

func TestCrossPartJoinReferral(t *testing.T) {
	// A joiner whose ID lands in part "1" bootstraps through part "0":
	// step 2's answer comes from a wrong-part top node, the joiner asks
	// it for part-"1" tops, and completes the join against those.
	env := newFakeEnv(33)
	cfg := quietConfig()
	self := ptrAt("1011", 0, 1)
	n := NewNode(cfg, env, Observer{}, self)

	boot := ptrAt("0011", 1, 40)     // part-"0" member
	zeroTop := ptrAt("0000", 1, 50)  // part-"0" top node
	rightTop := ptrAt("1000", 1, 60) // part-"1" top node
	var joinErr *error
	n.Join(boot, func(err error) { joinErr = &err })

	// Step 1: bootstrap returns its own part's tops.
	req := env.takeType(wire.MsgTopListReq)
	n.HandleMessage(wire.Message{Type: wire.MsgTopListResp, From: boot.Addr, To: 1,
		AckID: req[0].AckID, Pointers: []wire.Pointer{zeroTop}})

	// Step 2 hits the wrong-part top...
	q := env.takeType(wire.MsgJoinQuery)
	if len(q) != 1 || q[0].To != zeroTop.Addr {
		t.Fatalf("step 2 wrong: %+v", q)
	}
	n.HandleMessage(wire.Message{Type: wire.MsgJoinInfo, From: zeroTop.Addr, To: 1,
		AckID: q[0].AckID, Cost: 0, Sender: zeroTop})

	// ...which must trigger a cross-part top-list request for our part.
	cross := env.takeType(wire.MsgTopListReq)
	if len(cross) != 1 || cross[0].To != zeroTop.Addr || cross[0].PartBits != 1 {
		t.Fatalf("cross-part request wrong: %+v", cross)
	}
	n.HandleMessage(wire.Message{Type: wire.MsgTopListResp, From: zeroTop.Addr, To: 1,
		AckID: cross[0].AckID, Pointers: []wire.Pointer{rightTop}})

	// Step 2 retries against the right-part top; finish the join.
	q = env.takeType(wire.MsgJoinQuery)
	if len(q) != 1 || q[0].To != rightTop.Addr {
		t.Fatalf("referred step 2 wrong: %+v", q)
	}
	n.HandleMessage(wire.Message{Type: wire.MsgJoinInfo, From: rightTop.Addr, To: 1,
		AckID: q[0].AckID, Cost: 0, Sender: rightTop})
	plr := env.takeType(wire.MsgPeerListReq)
	if len(plr) != 1 || plr[0].To != rightTop.Addr {
		t.Fatalf("peer list request wrong: %+v", plr)
	}
	n.HandleMessage(wire.Message{Type: wire.MsgPeerListResp, From: rightTop.Addr, To: 1,
		AckID: plr[0].AckID, Pointers: []wire.Pointer{rightTop}})
	tlr := env.takeType(wire.MsgTopListReq)
	n.HandleMessage(wire.Message{Type: wire.MsgTopListResp, From: rightTop.Addr, To: 1,
		AckID: tlr[0].AckID, Pointers: []wire.Pointer{rightTop}})
	rep := env.takeType(wire.MsgReport)
	if len(rep) != 1 || rep[0].To != rightTop.Addr {
		t.Fatalf("join report wrong: %+v", rep)
	}
	n.HandleMessage(wire.Message{Type: wire.MsgReportAck, From: rightTop.Addr, To: 1,
		AckID: rep[0].AckID})

	if joinErr == nil || *joinErr != nil {
		t.Fatalf("cross-part join did not complete: %v", joinErr)
	}
	// The joiner adopted the right part's level.
	if n.Level() != 1 {
		t.Fatalf("level = %d want 1", n.Level())
	}
	if !n.Eigenstring().Contains(self.ID) {
		t.Fatal("eigenstring inconsistent")
	}
}

func TestRefreshCrossTopOnJoinWork(t *testing.T) {
	env := newFakeEnv(34)
	n := newTopNode(t, env)
	part, _ := nodeid.ParseEigenstring("1")
	other := ptrAt("1000", 1, 20)
	n.rememberCrossPart(part, []wire.Pointer{other})
	// Serving a join query triggers one lazy refresh toward the
	// remembered part.
	n.HandleMessage(wire.Message{Type: wire.MsgJoinQuery, From: 9, To: 1, AckID: 1})
	reqs := env.takeType(wire.MsgTopListReq)
	if len(reqs) != 1 || reqs[0].To != other.Addr {
		t.Fatalf("refresh request wrong: %+v", reqs)
	}
	// Answer with one fresh and one wrong-part pointer; only the former
	// must stick.
	fresh := ptrAt("1110", 1, 21)
	wrong := ptrAt("0110", 1, 22)
	n.HandleMessage(wire.Message{Type: wire.MsgTopListResp, From: other.Addr, To: 1,
		AckID: reqs[0].AckID, Pointers: []wire.Pointer{fresh, wrong}})
	tops := n.CrossPartTops(part)
	for _, p := range tops {
		if !part.Contains(p.ID) {
			t.Fatalf("wrong-part pointer kept: %v", p.ID)
		}
	}
	found := false
	for _, p := range tops {
		if p.ID == fresh.ID {
			found = true
		}
	}
	if !found {
		t.Fatal("fresh cross-part top not merged")
	}
}

func TestRefreshCrossTopDropsDeadPointer(t *testing.T) {
	env := newFakeEnv(35)
	cfg := quietConfig()
	n := NewNode(cfg, env, Observer{}, ptrAt("0000", 0, 1))
	n.Restore(0, nil, nil)
	env.take()
	part, _ := nodeid.ParseEigenstring("1")
	dead := ptrAt("1000", 1, 20)
	n.rememberCrossPart(part, []wire.Pointer{dead})
	n.HandleMessage(wire.Message{Type: wire.MsgJoinQuery, From: 9, To: 1, AckID: 1})
	reqs := env.takeType(wire.MsgTopListReq)
	if len(reqs) != 1 {
		t.Fatalf("want one refresh request")
	}
	// Silence → single-attempt refresh expires and the pointer is
	// dropped.
	env.run(cfg.AckTimeout + des.Millisecond)
	if got := n.CrossPartTops(part); len(got) != 0 {
		t.Fatalf("dead cross-part pointer survived: %+v", got)
	}
}

// Which remembered part a refresh asks is drawn from the node's seeded
// stream, not from Go's map iteration order: nodes built alike must send
// the same sequence of requests. (Ranging over the map picked a random
// part per run, and with it a different random draw and send order.)
func TestRefreshCrossTopDeterministic(t *testing.T) {
	targets := func() []wire.Addr {
		env := newFakeEnv(36)
		n := newTopNode(t, env)
		for i, bits := range []string{"1000", "1010", "1100", "1110", "0100", "0110"} {
			part, _ := nodeid.ParseEigenstring(bits[:3])
			n.rememberCrossPart(part, []wire.Pointer{ptrAt(bits, 3, wire.Addr(20+i))})
		}
		var out []wire.Addr
		for i := 0; i < 8; i++ {
			n.HandleMessage(wire.Message{Type: wire.MsgJoinQuery, From: 9, To: 1, AckID: uint64(i + 1)})
			reqs := env.takeType(wire.MsgTopListReq)
			if len(reqs) != 1 {
				t.Fatalf("trigger %d sent %d refresh requests, want 1", i, len(reqs))
			}
			out = append(out, reqs[0].To)
		}
		return out
	}
	want := targets()
	distinct := map[wire.Addr]bool{}
	for _, a := range want {
		distinct[a] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("eight refreshes all asked one part: %v", want)
	}
	for run := 0; run < 5; run++ {
		got := targets()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("run %d asked %v, first run asked %v", run, got, want)
			}
		}
	}
}
