package core

import (
	"testing"

	"peerwindow/internal/des"
	"peerwindow/internal/wire"
)

func TestTopListReqFromRegularNode(t *testing.T) {
	// A non-top node answers MsgTopListReq with its own top-node list,
	// not with itself.
	env := newFakeEnv(80)
	self := ptrAt("1100", 1, 1)
	n := NewNode(quietConfig(), env, Observer{}, self)
	stronger := ptrAt("1000", 0, 10)
	top := ptrAt("0000", 0, 50)
	n.Restore(1, []wire.Pointer{stronger}, []wire.Pointer{top})
	env.take()
	n.HandleMessage(wire.Message{Type: wire.MsgTopListReq, From: 9, To: 1, AckID: 2})
	resp := env.takeType(wire.MsgTopListResp)
	if len(resp) != 1 || len(resp[0].Pointers) != 1 || resp[0].Pointers[0].ID != top.ID {
		t.Fatalf("regular node's top list response wrong: %+v", resp)
	}
}

func TestReportEscalatesToStrongerNode(t *testing.T) {
	// A non-top node receiving a report must pass it up to the strongest
	// peer it knows — WITHOUT applying it (the tree will deliver it back).
	env := newFakeEnv(81)
	self := ptrAt("1100", 1, 1)
	n := NewNode(quietConfig(), env, Observer{}, self)
	stronger := ptrAt("1000", 0, 10)
	n.Restore(1, []wire.Pointer{stronger}, nil)
	env.take()
	subject := ptrAt("1110", 1, 30)
	ev := wire.Event{Kind: wire.EventJoin, Subject: subject, Seq: 42}
	n.HandleMessage(wire.Message{Type: wire.MsgReport, From: 9, To: 1, AckID: 3, Event: ev})
	msgs := env.take()
	var acked, escalated bool
	for _, m := range msgs {
		switch m.Type {
		case wire.MsgReportAck:
			acked = true
		case wire.MsgReport:
			if m.To == stronger.Addr && m.Event.Seq == 42 {
				escalated = true
			}
		case wire.MsgEvent:
			t.Fatal("non-top node originated a multicast")
		}
	}
	if !acked || !escalated {
		t.Fatalf("acked=%v escalated=%v", acked, escalated)
	}
	if _, applied := n.Peers().Lookup(subject.ID); applied {
		t.Fatal("escalating node applied the event early; tree delivery would be deduped")
	}
}

func TestReportFallbackToTopListRefresh(t *testing.T) {
	// With an empty top list, a non-top node asks a random peer for a
	// fresh one before giving up (§4.5 substitution).
	env := newFakeEnv(82)
	cfg := quietConfig()
	self := ptrAt("1100", 1, 1)
	n := NewNode(cfg, env, Observer{}, self)
	stronger := ptrAt("1000", 0, 10)
	n.Restore(1, []wire.Pointer{stronger}, nil) // no top list at all
	env.take()
	n.SetInfo([]byte("x"))
	// No tops: the node asks a peer for its top list first.
	reqs := env.takeType(wire.MsgTopListReq)
	if len(reqs) != 1 || reqs[0].To != stronger.Addr {
		t.Fatalf("expected a top-list refresh request, got %+v", reqs)
	}
	fresh := ptrAt("0000", 0, 50)
	n.HandleMessage(wire.Message{Type: wire.MsgTopListResp, From: stronger.Addr, To: 1,
		AckID: reqs[0].AckID, Pointers: []wire.Pointer{fresh}})
	reports := env.takeType(wire.MsgReport)
	if len(reports) != 1 || reports[0].To != fresh.Addr {
		t.Fatalf("report did not use the refreshed top list: %+v", reports)
	}
}

func TestVerifyFailureRestoresAlivePointer(t *testing.T) {
	env := newFakeEnv(84)
	cfg := quietConfig()
	self := ptrAt("0000", 0, 1)
	n := NewNode(cfg, env, Observer{}, self)
	target := ptrAt("1000", 0, 10)
	other := ptrAt("0100", 0, 11)
	n.Restore(0, []wire.Pointer{target, other}, nil)
	env.take()
	// An event whose step-0 target is 'target'; stay silent so the send
	// chain fails and the pointer gets dropped + verified.
	subject := ptrAt("1100", 0, 30)
	ev := wire.Event{Kind: wire.EventJoin, Subject: subject, Seq: 5}
	n.HandleMessage(wire.Message{Type: wire.MsgEvent, From: 9, To: 1, AckID: 1, Step: 0, Event: ev})
	// Exhaust the event send retries toward 'target' (it may be either
	// candidate; run long enough for any chain to fail and verify).
	env.run(des.Time(cfg.RetryAttempts+1) * cfg.AckTimeout)
	// Answer every outstanding verification heartbeat: the targets are
	// alive.
	for _, m := range env.takeType(wire.MsgHeartbeat) {
		n.HandleMessage(wire.Message{Type: wire.MsgHeartbeatAck, From: m.To, To: 1, AckID: m.AckID})
	}
	env.run(des.Time(cfg.RetryAttempts+1) * cfg.AckTimeout)
	for _, m := range env.takeType(wire.MsgHeartbeat) {
		n.HandleMessage(wire.Message{Type: wire.MsgHeartbeatAck, From: m.To, To: 1, AckID: m.AckID})
	}
	// Both alive pointers must be back in the list, and no leave event
	// may have been announced.
	if _, ok := n.Peers().Lookup(target.ID); !ok {
		t.Fatal("alive pointer not restored after successful verification")
	}
	for _, m := range env.take() {
		if m.Type == wire.MsgEvent && m.Event.Kind == wire.EventLeave {
			t.Fatal("leave announced despite successful verification")
		}
	}
}
