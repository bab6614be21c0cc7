package core

import (
	"testing"

	"peerwindow/internal/des"
	"peerwindow/internal/nodeid"
	"peerwindow/internal/wire"
)

// refreshConfig arms only the §4.6 machinery.
func refreshConfig() Config {
	cfg := quietConfig()
	cfg.RefreshEnabled = true
	cfg.RefreshFloor = 1 * des.Minute
	return cfg
}

// feedLifetimes gives the node enough leave observations to establish
// LT_level ≈ life.
func feedLifetimes(n *Node, env *fakeEnv, level int, life des.Time, count int) {
	base := "01"
	for i := 0; i < count; i++ {
		// Distinct IDs inside the node's region.
		p := ptrAt(base+"10", level, wire.Addr(100+i))
		p.ID = p.ID.Add(nodeid.ID{Lo: uint64(i + 1)})
		n.HandleMessage(wire.Message{Type: wire.MsgEvent, From: 9, To: 1,
			AckID: uint64(1000 + i), Step: 3,
			Event: wire.Event{Kind: wire.EventJoin, Subject: p, Seq: uint64(env.Now()) + 1}})
		env.run(life)
		n.HandleMessage(wire.Message{Type: wire.MsgEvent, From: 9, To: 1,
			AckID: uint64(2000 + i), Step: 3,
			Event: wire.Event{Kind: wire.EventLeave, Subject: p, Seq: uint64(env.Now()) + 1}})
	}
	env.take()
}

func TestLifetimeMeasurementFromLeaves(t *testing.T) {
	env := newFakeEnv(40)
	n := NewNode(refreshConfig(), env, Observer{}, ptrAt("0000", 0, 1))
	n.Restore(0, nil, nil)
	env.take()
	feedLifetimes(n, env, 2, 5*des.Minute, 4)
	agg := n.LifetimeStats().Level(2)
	if agg.N() != 4 {
		t.Fatalf("lifetime samples = %d want 4", agg.N())
	}
	got := des.Time(agg.Mean())
	if got < 4*des.Minute || got > 6*des.Minute {
		t.Fatalf("measured LT_2 = %v want ~5m", got)
	}
}

func TestExpirySweepsUnrefreshedPointers(t *testing.T) {
	env := newFakeEnv(41)
	expired := &removedSink{reason: RemoveExpired}
	n := NewNode(refreshConfig(), env, Observer{}, ptrAt("0000", 0, 1))
	n.SetDeltas(expired)
	n.Restore(0, nil, nil)
	env.take()
	// Establish LT ≈ 5 minutes at level 2.
	feedLifetimes(n, env, 2, 5*des.Minute, 4)
	// Add a pointer that will never be refreshed.
	ghost := ptrAt("1010", 2, 200)
	n.HandleMessage(wire.Message{Type: wire.MsgEvent, From: 9, To: 1, AckID: 1, Step: 3,
		Event: wire.Event{Kind: wire.EventJoin, Subject: ghost, Seq: uint64(env.Now()) + 1}})
	env.take()
	// 3·LT = 15 minutes; run past it (sweeps run every RefreshFloor).
	env.run(20 * des.Minute)
	if _, still := n.Peers().Lookup(ghost.ID); still {
		t.Fatal("unrefreshed pointer survived 3·LT")
	}
	found := false
	for _, p := range expired.got {
		if p.ID == ghost.ID {
			found = true
		}
	}
	if !found {
		t.Fatal("expiry not reported with RemoveExpired")
	}
}

func TestRefreshEventTouchResetsExpiry(t *testing.T) {
	env := newFakeEnv(42)
	n := NewNode(refreshConfig(), env, Observer{}, ptrAt("0000", 0, 1))
	n.Restore(0, nil, nil)
	env.take()
	feedLifetimes(n, env, 2, 5*des.Minute, 4)
	kept := ptrAt("1010", 2, 200)
	seq := uint64(env.Now()) + 1
	n.HandleMessage(wire.Message{Type: wire.MsgEvent, From: 9, To: 1, AckID: 1, Step: 3,
		Event: wire.Event{Kind: wire.EventJoin, Subject: kept, Seq: seq}})
	// Refresh it every 10 minutes: it must survive well past 3·LT.
	for i := 0; i < 4; i++ {
		env.run(10 * des.Minute)
		seq++
		n.HandleMessage(wire.Message{Type: wire.MsgEvent, From: 9, To: 1,
			AckID: uint64(10 + i), Step: 3,
			Event: wire.Event{Kind: wire.EventRefresh, Subject: kept, Seq: seq}})
	}
	if _, ok := n.Peers().Lookup(kept.ID); !ok {
		t.Fatal("refreshed pointer expired anyway")
	}
}

func TestSelfRefreshMulticastAfterTwoLifetimes(t *testing.T) {
	env := newFakeEnv(43)
	n := NewNode(refreshConfig(), env, Observer{}, ptrAt("0000", 0, 1))
	// A peer to multicast toward.
	n.Restore(0, []wire.Pointer{ptrAt("1000", 0, 10)}, nil)
	env.take()
	// LT_0 ≈ 5 minutes → refresh every ~10 minutes.
	feedLifetimes(n, env, 0, 5*des.Minute, 4)
	peer := ptrAt("1000", 0, 10)
	seq := uint64(env.Now()) + 1
	refreshes := 0
	for i := 0; i < 5; i++ {
		env.run(5 * des.Minute)
		// Keep the peer itself from expiring so the multicast has a
		// target.
		seq++
		n.HandleMessage(wire.Message{Type: wire.MsgEvent, From: 10, To: 1,
			AckID: uint64(50 + i), Step: 3,
			Event: wire.Event{Kind: wire.EventRefresh, Subject: peer, Seq: seq}})
		for _, m := range env.take() {
			if m.Type == wire.MsgEvent && m.Event.Kind == wire.EventRefresh &&
				m.Event.Subject.ID == n.Self().ID {
				refreshes++
			}
		}
	}
	if refreshes == 0 {
		t.Fatal("no self-refresh multicast after 2·LT")
	}
}

func TestNoRefreshWithoutLifetimeSamples(t *testing.T) {
	// "In practice, most nodes never perform such refreshing multicast"
	// — and with no samples at all the node must not guess.
	env := newFakeEnv(44)
	n := NewNode(refreshConfig(), env, Observer{}, ptrAt("0000", 0, 1))
	n.Restore(0, []wire.Pointer{ptrAt("1000", 0, 10)}, nil)
	env.take()
	env.run(30 * des.Minute)
	for _, m := range env.take() {
		if m.Type == wire.MsgEvent && m.Event.Kind == wire.EventRefresh {
			t.Fatal("refresh multicast without any lifetime data")
		}
	}
	if _, still := n.Peers().Lookup(ptrAt("1000", 0, 10).ID); !still {
		t.Fatal("pointer expired without any lifetime data")
	}
}
