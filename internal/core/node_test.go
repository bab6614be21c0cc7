package core

import (
	"testing"

	"peerwindow/internal/des"
	"peerwindow/internal/nodeid"
	"peerwindow/internal/wire"
	"peerwindow/internal/xrand"
)

// fakeEnv drives a single node deterministically: timers run on a DES
// engine and every outgoing message is captured for inspection.
type fakeEnv struct {
	engine *des.Engine
	rng    *xrand.Source
	sent   []wire.Message
}

func newFakeEnv(seed uint64) *fakeEnv {
	return &fakeEnv{engine: des.New(), rng: xrand.New(seed)}
}

func (e *fakeEnv) Now() des.Time         { return e.engine.Now() }
func (e *fakeEnv) Rand() *xrand.Source   { return e.rng }
func (e *fakeEnv) Send(msg wire.Message) { e.sent = append(e.sent, msg) }
func (e *fakeEnv) SetTimer(d des.Time, fn func()) Timer {
	return fakeTimer{e.engine.After(d, fn)}
}

type fakeTimer struct{ h des.Handle }

func (t fakeTimer) Cancel() bool { return t.h.Cancel() }

// take drains and returns the captured messages.
func (e *fakeEnv) take() []wire.Message {
	out := e.sent
	e.sent = nil
	return out
}

// takeType drains captured messages and returns those of one type.
func (e *fakeEnv) takeType(t wire.MsgType) []wire.Message {
	var match []wire.Message
	for _, m := range e.take() {
		if m.Type == t {
			match = append(match, m)
		}
	}
	return match
}

// run advances virtual time.
func (e *fakeEnv) run(d des.Time) { e.engine.Run(e.engine.Now() + d) }

// ptrAt builds a test pointer from a bit prefix.
func ptrAt(bits string, level int, addr wire.Addr) wire.Pointer {
	id, err := nodeid.FromBitString(bits)
	if err != nil {
		panic(err)
	}
	return wire.Pointer{Addr: addr, ID: id, Level: uint8(level)}
}

// quietConfig disables the periodic machinery that would pollute the
// captured message stream.
func quietConfig() Config {
	cfg := DefaultConfig()
	cfg.ProbeInterval = 100 * des.Hour
	cfg.ShiftCheckInterval = 100 * des.Hour
	cfg.RefreshEnabled = false
	cfg.ReconcileDelay = 0
	cfg.ForwardDelay = 0
	return cfg
}

// newTopNode builds a bootstrapped level-0 node with the given peers.
func newTopNode(t *testing.T, env *fakeEnv, peers ...wire.Pointer) *Node {
	t.Helper()
	self := ptrAt("0000", 0, 1)
	n := NewNode(quietConfig(), env, Observer{}, self)
	n.Restore(0, peers, nil)
	env.take() // discard any startup traffic
	return n
}

func TestNewNodeValidation(t *testing.T) {
	env := newFakeEnv(1)
	for name, f := range map[string]func(){
		"bad config": func() { NewNode(Config{}, env, Observer{}, ptrAt("0", 0, 1)) },
		"nil env":    func() { NewNode(DefaultConfig(), nil, Observer{}, ptrAt("0", 0, 1)) },
		"nil addr":   func() { NewNode(DefaultConfig(), env, Observer{}, wire.Pointer{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestBootstrapIsTopAndJoined(t *testing.T) {
	env := newFakeEnv(2)
	n := NewNode(quietConfig(), env, Observer{}, ptrAt("0000", 0, 1))
	if n.Joined() {
		t.Fatal("joined before bootstrap")
	}
	n.Bootstrap()
	if !n.Joined() || n.Level() != 0 {
		t.Fatal("bootstrap did not produce a joined level-0 node")
	}
	// TopListReq answered with itself (a top node's part tops).
	n.HandleMessage(wire.Message{Type: wire.MsgTopListReq, From: 9, To: 1, AckID: 5})
	resp := env.takeType(wire.MsgTopListResp)
	if len(resp) != 1 || len(resp[0].Pointers) != 1 || resp[0].Pointers[0].ID != n.Self().ID {
		t.Fatalf("top list response wrong: %+v", resp)
	}
}

func TestJoinQueryAnswered(t *testing.T) {
	env := newFakeEnv(3)
	n := newTopNode(t, env)
	n.HandleMessage(wire.Message{Type: wire.MsgJoinQuery, From: 9, To: 1, AckID: 7})
	resp := env.takeType(wire.MsgJoinInfo)
	if len(resp) != 1 {
		t.Fatalf("want one MsgJoinInfo, got %d", len(resp))
	}
	if resp[0].AckID != 7 || resp[0].Sender.ID != n.Self().ID || resp[0].Sender.Level != 0 {
		t.Fatalf("join info wrong: %+v", resp[0])
	}
}

func TestPeerListReqFiltersByPrefixAndExcludesRequester(t *testing.T) {
	env := newFakeEnv(4)
	a := ptrAt("1000", 1, 10)
	b := ptrAt("1100", 1, 11)
	c := ptrAt("0100", 1, 12)
	n := newTopNode(t, env, a, b, c)
	// Requester wants the "1" region; it is node a itself.
	n.HandleMessage(wire.Message{
		Type: wire.MsgPeerListReq, From: 10, To: 1, AckID: 3,
		Sender: wire.Pointer{Addr: 10, ID: a.ID, Level: 1},
	})
	resp := env.takeType(wire.MsgPeerListResp)
	if len(resp) != 1 {
		t.Fatalf("want one response, got %d", len(resp))
	}
	if len(resp[0].Pointers) != 1 || resp[0].Pointers[0].ID != b.ID {
		t.Fatalf("filtered list wrong: %+v", resp[0].Pointers)
	}
	// A blank-prefix request gets everything plus the responder.
	n.HandleMessage(wire.Message{
		Type: wire.MsgPeerListReq, From: 99, To: 1, AckID: 4,
		Sender: wire.Pointer{Addr: 99, ID: nodeid.HashString("outsider"), Level: 0},
	})
	resp = env.takeType(wire.MsgPeerListResp)
	if len(resp[0].Pointers) != 4 { // a, b, c + self
		t.Fatalf("blank-prefix list has %d entries, want 4", len(resp[0].Pointers))
	}
}

func TestReportAppliedAndMulticast(t *testing.T) {
	env := newFakeEnv(5)
	a := ptrAt("1000", 0, 10)
	n := newTopNode(t, env, a)
	// A join report about a new subject.
	subject := ptrAt("0100", 0, 20)
	ev := wire.Event{Kind: wire.EventJoin, Subject: subject, Seq: 100}
	n.HandleMessage(wire.Message{Type: wire.MsgReport, From: 10, To: 1, AckID: 9, Event: ev})
	msgs := env.take()
	var acks, events int
	for _, m := range msgs {
		switch m.Type {
		case wire.MsgReportAck:
			acks++
			if m.AckID != 9 {
				t.Fatal("ack id mismatch")
			}
		case wire.MsgEvent:
			events++
			if m.Event.Subject.ID != subject.ID {
				t.Fatal("multicast wrong subject")
			}
		}
	}
	if acks != 1 || events == 0 {
		t.Fatalf("acks=%d events=%d; want 1 and >0", acks, events)
	}
	if _, ok := n.Peers().Lookup(subject.ID); !ok {
		t.Fatal("report not applied to the peer list")
	}
	// A duplicate report (same seq) must not re-originate.
	n.HandleMessage(wire.Message{Type: wire.MsgReport, From: 10, To: 1, AckID: 10, Event: ev})
	if dup := env.takeType(wire.MsgEvent); len(dup) != 0 {
		t.Fatalf("duplicate report re-originated %d event messages", len(dup))
	}
}

func TestEventAckedAppliedForwarded(t *testing.T) {
	env := newFakeEnv(6)
	// Peers on the other side of bit 0 so forwarding has a target.
	far := ptrAt("1000", 0, 10)
	n := newTopNode(t, env, far)
	subject := ptrAt("1100", 0, 30)
	ev := wire.Event{Kind: wire.EventJoin, Subject: subject, Seq: 50}
	n.HandleMessage(wire.Message{Type: wire.MsgEvent, From: 77, To: 1, AckID: 4, Step: 0, Event: ev})
	msgs := env.take()
	var acked bool
	var forwards []wire.Message
	for _, m := range msgs {
		switch m.Type {
		case wire.MsgAck:
			acked = m.AckID == 4
		case wire.MsgEvent:
			forwards = append(forwards, m)
		}
	}
	if !acked {
		t.Fatal("event not acked")
	}
	if len(forwards) == 0 {
		t.Fatal("event not forwarded down the tree")
	}
	if forwards[0].Step != 1 {
		t.Fatalf("forwarded step = %d want 1", forwards[0].Step)
	}
	// Duplicate delivery: ack again, but never forward again.
	n.HandleMessage(wire.Message{Type: wire.MsgEvent, From: 78, To: 1, AckID: 5, Step: 0, Event: ev})
	msgs = env.take()
	for _, m := range msgs {
		if m.Type == wire.MsgEvent {
			t.Fatal("duplicate event was forwarded")
		}
	}
}

func TestReliableRetryWalksTopList(t *testing.T) {
	// A non-top node reports through its top list; silent tops are
	// retried RetryAttempts times each, then dropped.
	env := newFakeEnv(7)
	cfg := quietConfig()
	self := ptrAt("1100", 1, 1)
	n := NewNode(cfg, env, Observer{}, self)
	top1 := ptrAt("0000", 0, 50)
	top2 := ptrAt("0010", 0, 51)
	// A stronger in-prefix peer keeps this node from being a top node of
	// its part, so announcements go through the top list.
	n.Restore(1, []wire.Pointer{ptrAt("1000", 0, 10)}, []wire.Pointer{top1, top2})
	env.take()

	n.SetInfo([]byte("x")) // announce → report to a top node
	first := env.takeType(wire.MsgReport)
	if len(first) != 1 {
		t.Fatalf("want 1 initial report, got %d", len(first))
	}
	target1 := first[0].To
	// Silence: each timeout resends to the same target until attempts
	// are spent.
	retries := 0
	for i := 0; i < cfg.RetryAttempts-1; i++ {
		env.run(cfg.AckTimeout + des.Millisecond)
		for _, m := range env.takeType(wire.MsgReport) {
			if m.To != target1 {
				t.Fatalf("retry went to %v, want %v", m.To, target1)
			}
			retries++
		}
	}
	if retries != cfg.RetryAttempts-1 {
		t.Fatalf("saw %d retries, want %d", retries, cfg.RetryAttempts-1)
	}
	// After the attempt budget: the next report goes to the other top.
	env.run(cfg.AckTimeout + des.Millisecond)
	next := env.takeType(wire.MsgReport)
	if len(next) != 1 || next[0].To == target1 {
		t.Fatalf("report did not move to the next top node: %+v", next)
	}
}

func TestReportAckRefreshesTopList(t *testing.T) {
	env := newFakeEnv(8)
	cfg := quietConfig()
	self := ptrAt("1100", 1, 1)
	n := NewNode(cfg, env, Observer{}, self)
	top1 := ptrAt("0000", 0, 50)
	n.Restore(1, []wire.Pointer{ptrAt("1000", 0, 10)}, []wire.Pointer{top1})
	env.take()
	n.SetInfo([]byte("y"))
	rep := env.takeType(wire.MsgReport)
	if len(rep) != 1 {
		t.Fatalf("want one report")
	}
	// Ack with piggybacked fresh top pointers (§4.5).
	fresh := []wire.Pointer{ptrAt("0001", 0, 60), ptrAt("0011", 0, 61)}
	n.HandleMessage(wire.Message{
		Type: wire.MsgReportAck, From: top1.Addr, To: 1,
		AckID: rep[0].AckID, Pointers: fresh,
	})
	tops := n.TopList()
	if len(tops) < 3 {
		t.Fatalf("top list not refreshed: %d entries", len(tops))
	}
	// The fresh pointers come first (most recent first).
	if tops[0].ID != fresh[0].ID || tops[1].ID != fresh[1].ID {
		t.Fatalf("fresh tops not preferred: %+v", tops[:2])
	}
}

func TestProbeCycleDetectsFailure(t *testing.T) {
	env := newFakeEnv(9)
	cfg := quietConfig()
	cfg.ProbeInterval = 30 * des.Second
	cfg.ProbeTimeout = 5 * des.Second
	self := ptrAt("0000", 0, 1)
	succ := ptrAt("0100", 0, 10)
	other := ptrAt("1000", 0, 11)
	n := NewNode(cfg, env, Observer{}, self)
	n.Restore(0, []wire.Pointer{succ, other}, nil)
	env.take()

	// First probe goes to the ring successor (next larger ID).
	env.run(cfg.ProbeInterval + des.Millisecond)
	probes := env.takeType(wire.MsgHeartbeat)
	if len(probes) != 1 || probes[0].To != succ.Addr {
		t.Fatalf("probe target wrong: %+v", probes)
	}
	// Answer it: no failure declared even after all retry windows pass.
	n.HandleMessage(wire.Message{Type: wire.MsgHeartbeatAck, From: succ.Addr, To: 1, AckID: probes[0].AckID})
	env.run(des.Time(cfg.RetryAttempts)*cfg.ProbeTimeout + des.Millisecond)
	if len(env.takeType(wire.MsgEvent)) != 0 {
		t.Fatal("answered probe still declared a failure")
	}

	// Next round: stay silent → failure detected, leave multicast
	// originated (we are a top node), probing redirected to the next
	// neighbour immediately. Advance to just after the probe fires but
	// before its timeout.
	env.run(cfg.ProbeInterval - cfg.ProbeTimeout + des.Second)
	probes = env.takeType(wire.MsgHeartbeat)
	if len(probes) == 0 {
		t.Fatal("no second probe round")
	}
	for _, p := range probes {
		if p.To != succ.Addr {
			t.Fatalf("probe attempt to %v, want %v", p.To, succ.Addr)
		}
	}
	// Failure now requires RetryAttempts consecutive silent probes.
	env.run(des.Time(cfg.RetryAttempts)*cfg.ProbeTimeout + des.Second)
	msgs := env.take()
	var leaveSeen, redirected bool
	for _, m := range msgs {
		if m.Type == wire.MsgEvent && m.Event.Kind == wire.EventLeave &&
			m.Event.Subject.ID == succ.ID {
			leaveSeen = true
		}
		if m.Type == wire.MsgHeartbeat && m.To == other.Addr {
			redirected = true
		}
	}
	if !leaveSeen {
		t.Fatal("failure not announced as a leave event")
	}
	if !redirected {
		t.Fatal("probing not redirected to the next neighbour")
	}
	if _, still := n.Peers().Lookup(succ.ID); still {
		t.Fatal("failed neighbour still in the peer list")
	}
}

func TestLeaveEventByPresenceNotSequence(t *testing.T) {
	env := newFakeEnv(10)
	victim := ptrAt("1000", 0, 10)
	n := newTopNode(t, env, victim, ptrAt("0100", 0, 11))
	// Learn about the victim via a high-seq join.
	n.HandleMessage(wire.Message{Type: wire.MsgEvent, From: 9, To: 1, AckID: 1, Step: 3,
		Event: wire.Event{Kind: wire.EventJoin, Subject: victim, Seq: 1000}})
	env.take()
	// A detector that learned the victim from a list download reports
	// the leave with a tiny sequence number: it must still apply.
	n.HandleMessage(wire.Message{Type: wire.MsgEvent, From: 9, To: 1, AckID: 2, Step: 3,
		Event: wire.Event{Kind: wire.EventLeave, Subject: victim, Seq: 1}})
	if _, still := n.Peers().Lookup(victim.ID); still {
		t.Fatal("low-seq leave did not remove a present subject")
	}
	// But the same low-seq leave again is a duplicate: no forwarding.
	env.take()
	n.HandleMessage(wire.Message{Type: wire.MsgEvent, From: 9, To: 1, AckID: 3, Step: 3,
		Event: wire.Event{Kind: wire.EventLeave, Subject: victim, Seq: 1}})
	for _, m := range env.take() {
		if m.Type == wire.MsgEvent {
			t.Fatal("duplicate leave was forwarded")
		}
	}
}

func TestRejoinAfterLeaveClearsDeadFlag(t *testing.T) {
	env := newFakeEnv(11)
	subject := ptrAt("1000", 0, 10)
	n := newTopNode(t, env, subject, ptrAt("0100", 0, 11))
	n.HandleMessage(wire.Message{Type: wire.MsgEvent, From: 9, To: 1, AckID: 1, Step: 3,
		Event: wire.Event{Kind: wire.EventLeave, Subject: subject, Seq: 500}})
	if _, still := n.Peers().Lookup(subject.ID); still {
		t.Fatal("leave not applied")
	}
	// The node rejoins under the same identifier with a later sequence.
	n.HandleMessage(wire.Message{Type: wire.MsgEvent, From: 9, To: 1, AckID: 2, Step: 3,
		Event: wire.Event{Kind: wire.EventJoin, Subject: subject, Seq: 600}})
	if _, ok := n.Peers().Lookup(subject.ID); !ok {
		t.Fatal("rejoin not applied")
	}
}

func TestSetInfoAnnouncesWithIncreasingSeq(t *testing.T) {
	env := newFakeEnv(12)
	n := newTopNode(t, env, ptrAt("1000", 0, 10))
	n.SetInfo([]byte("v1"))
	first := env.takeType(wire.MsgEvent)
	n.SetInfo([]byte("v2"))
	second := env.takeType(wire.MsgEvent)
	if len(first) == 0 || len(second) == 0 {
		t.Fatal("info changes not multicast")
	}
	if second[0].Event.Seq <= first[0].Event.Seq {
		t.Fatal("announcement sequence not increasing")
	}
	if string(second[0].Event.Subject.Info) != "v2" {
		t.Fatal("announced pointer does not carry the new info")
	}
}

func TestSetInfoSizeLimit(t *testing.T) {
	env := newFakeEnv(13)
	n := newTopNode(t, env)
	defer func() {
		if recover() == nil {
			t.Fatal("oversized info did not panic")
		}
	}()
	n.SetInfo(make([]byte, wire.MaxInfoLen+1))
}

func TestRestoreValidation(t *testing.T) {
	env := newFakeEnv(14)
	n := NewNode(quietConfig(), env, Observer{}, ptrAt("0000", 0, 1))
	n.Restore(0, nil, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("double restore did not panic")
		}
	}()
	n.Restore(0, nil, nil)
}

func TestRestoreFiltersPeersOutsideEigenstring(t *testing.T) {
	env := newFakeEnv(15)
	n := NewNode(quietConfig(), env, Observer{}, ptrAt("1100", 0, 1))
	inside := ptrAt("1000", 1, 10)
	outside := ptrAt("0100", 1, 11)
	n.Restore(1, []wire.Pointer{inside, outside}, nil)
	if _, ok := n.Peers().Lookup(inside.ID); !ok {
		t.Fatal("in-prefix peer missing")
	}
	if _, ok := n.Peers().Lookup(outside.ID); ok {
		t.Fatal("out-of-prefix peer restored")
	}
}

// removedSink is a DeltaSink recording the pointers removed for one
// reason.
type removedSink struct {
	reason RemoveReason
	got    []wire.Pointer
}

func (s *removedSink) PeerAdded(wire.Pointer)        {}
func (s *removedSink) PeerUpdated(_, _ wire.Pointer) {}
func (s *removedSink) PeerRemoved(p wire.Pointer, r RemoveReason) {
	if r == s.reason {
		s.got = append(s.got, p)
	}
}

func TestLowerLevelShedsAndAnnounces(t *testing.T) {
	env := newFakeEnv(16)
	cfg := quietConfig()
	cfg.ShiftCheckInterval = 10 * des.Second
	cfg.MeterWindow = 20 * des.Second
	cfg.ThresholdBits = 100 // tiny: any traffic overruns it
	self := ptrAt("0000", 0, 1)
	sameSide := ptrAt("0100", 0, 10)
	farSide := ptrAt("1000", 0, 11)
	shed := &removedSink{reason: RemoveShift}
	n := NewNode(cfg, env, Observer{}, self)
	n.SetDeltas(shed)
	n.Restore(0, []wire.Pointer{sameSide, farSide}, nil)
	env.take()
	// Pump maintenance traffic to exceed the budget, past the cooldown.
	for i := 0; i < 100; i++ {
		env.run(des.Second)
		n.HandleMessage(wire.Message{Type: wire.MsgHeartbeat, From: 10, To: 1, AckID: uint64(i)})
	}
	env.run(cfg.MeterWindow + 2*cfg.ShiftCheckInterval)
	if n.Level() == 0 {
		t.Fatalf("node did not shift down (rate %.0f, budget %.0f)",
			n.InputRate(), cfg.ThresholdBits)
	}
	found := false
	for _, p := range shed.got {
		if p.ID == farSide.ID {
			found = true
		}
	}
	if !found {
		t.Fatal("far-side peer not shed on the way down")
	}
}

func TestRaiseLevelDownloadsThenAnnounces(t *testing.T) {
	env := newFakeEnv(17)
	cfg := quietConfig()
	cfg.ShiftCheckInterval = 10 * des.Second
	cfg.MeterWindow = 20 * des.Second
	cfg.ThresholdBits = 1e9 // idle: cost is always far below budget
	self := ptrAt("1100", 0, 1)
	// The donor must live inside the node's current eigenstring ("1") or
	// Restore would not keep it; its level-0 list covers the expansion.
	donor := ptrAt("1010", 0, 50)
	n := NewNode(cfg, env, Observer{}, self)
	n.Restore(1, []wire.Pointer{donor, ptrAt("1000", 1, 10)}, nil)
	env.take()
	// Advance just past the first level check after the shift cooldown,
	// then answer promptly — the download request only lives for
	// RetryAttempts x AckTimeout before the raise is abandoned.
	env.run(cfg.MeterWindow + cfg.ShiftCheckInterval + des.Second)
	reqs := env.takeType(wire.MsgPeerListReq)
	if len(reqs) == 0 {
		t.Fatal("idle node never asked a donor for the expanded region")
	}
	last := reqs[len(reqs)-1] // earlier attempts may have expired
	if last.To != donor.Addr || int(last.Sender.Level) != 0 {
		t.Fatalf("bad donor request: %+v", last)
	}
	// Serve the download: one pointer from the newly-covered half.
	newcomer := ptrAt("0100", 1, 60)
	n.HandleMessage(wire.Message{
		Type: wire.MsgPeerListResp, From: donor.Addr, To: 1,
		AckID: last.AckID, Pointers: []wire.Pointer{newcomer},
	})
	if n.Level() != 0 {
		t.Fatalf("level = %d after successful raise", n.Level())
	}
	if _, ok := n.Peers().Lookup(newcomer.ID); !ok {
		t.Fatal("downloaded pointer missing after raise")
	}
	// The shift itself must be announced.
	events := env.takeType(wire.MsgEvent)
	okShift := false
	for _, m := range events {
		if m.Event.Kind == wire.EventLevelShift && m.Event.Subject.Level == 0 {
			okShift = true
		}
	}
	if !okShift {
		t.Fatal("level shift not announced")
	}
}

func TestJoinFourStepsScripted(t *testing.T) {
	env := newFakeEnv(18)
	cfg := quietConfig()
	cfg.ReconcileDelay = 60 * des.Second
	self := ptrAt("1111", 0, 1)
	n := NewNode(cfg, env, Observer{}, self)

	boot := ptrAt("0011", 0, 40)
	top := ptrAt("0000", 0, 50)
	var joinErr *error

	n.Join(boot, func(err error) { joinErr = &err })

	// Step 1: top-node discovery through the bootstrap.
	req := env.takeType(wire.MsgTopListReq)
	if len(req) != 1 || req[0].To != boot.Addr {
		t.Fatalf("step 1 wrong: %+v", req)
	}
	n.HandleMessage(wire.Message{Type: wire.MsgTopListResp, From: boot.Addr, To: 1,
		AckID: req[0].AckID, Pointers: []wire.Pointer{top}})

	// Step 2: level estimation query to the top node.
	q := env.takeType(wire.MsgJoinQuery)
	if len(q) != 1 || q[0].To != top.Addr {
		t.Fatalf("step 2 wrong: %+v", q)
	}
	n.HandleMessage(wire.Message{Type: wire.MsgJoinInfo, From: top.Addr, To: 1,
		AckID: q[0].AckID, Cost: 0, Sender: top})

	// Step 3a: peer list download.
	plr := env.takeType(wire.MsgPeerListReq)
	if len(plr) != 1 || plr[0].To != top.Addr {
		t.Fatalf("step 3 wrong: %+v", plr)
	}
	peer1 := ptrAt("1010", 0, 60)
	peer2 := ptrAt("0101", 0, 61)
	n.HandleMessage(wire.Message{Type: wire.MsgPeerListResp, From: top.Addr, To: 1,
		AckID: plr[0].AckID, Pointers: []wire.Pointer{peer1, peer2, top}})

	// Step 3b: top list download.
	tlr := env.takeType(wire.MsgTopListReq)
	if len(tlr) != 1 {
		t.Fatalf("step 3b wrong: %+v", tlr)
	}
	n.HandleMessage(wire.Message{Type: wire.MsgTopListResp, From: top.Addr, To: 1,
		AckID: tlr[0].AckID, Pointers: []wire.Pointer{top}})

	// Step 4: the joining event reported to the top node.
	rep := env.takeType(wire.MsgReport)
	if len(rep) != 1 || rep[0].Event.Kind != wire.EventJoin ||
		rep[0].Event.Subject.ID != self.ID {
		t.Fatalf("step 4 wrong: %+v", rep)
	}
	if joinErr != nil {
		t.Fatal("done called before the report was acked")
	}
	n.HandleMessage(wire.Message{Type: wire.MsgReportAck, From: top.Addr, To: 1,
		AckID: rep[0].AckID})

	if joinErr == nil || *joinErr != nil {
		t.Fatalf("join did not complete cleanly: %v", joinErr)
	}
	if !n.Joined() || n.Level() != 0 {
		t.Fatal("node not live at the estimated level")
	}
	if n.Peers().Len() != 3 {
		t.Fatalf("peer list has %d entries, want 3", n.Peers().Len())
	}

	// Reconcile pass fires after the configured delay and prunes
	// entries the donor no longer has.
	env.take()
	env.run(cfg.ReconcileDelay + des.Millisecond)
	rec := env.takeType(wire.MsgPeerListReq)
	if len(rec) != 1 {
		t.Fatalf("reconcile did not fire: %+v", rec)
	}
	// Donor reports peer2 gone; peer1 and top remain.
	n.HandleMessage(wire.Message{Type: wire.MsgPeerListResp, From: rec[0].To, To: 1,
		AckID: rec[0].AckID, Pointers: []wire.Pointer{peer1, top}})
	if _, still := n.Peers().Lookup(peer2.ID); still {
		t.Fatal("reconcile kept a pointer the donor dropped")
	}
	if _, ok := n.Peers().Lookup(peer1.ID); !ok {
		t.Fatal("reconcile dropped a live pointer")
	}
}

func TestJoinFailsWhenBootstrapSilent(t *testing.T) {
	env := newFakeEnv(19)
	cfg := quietConfig()
	n := NewNode(cfg, env, Observer{}, ptrAt("1111", 0, 1))
	var got error
	called := false
	n.Join(ptrAt("0011", 0, 40), func(err error) { got = err; called = true })
	// Let every retry expire.
	env.run(des.Time(cfg.RetryAttempts+1) * cfg.AckTimeout * 2)
	if !called || got == nil {
		t.Fatalf("join should have failed: called=%v err=%v", called, got)
	}
}

func TestJoinThroughSelfPanics(t *testing.T) {
	env := newFakeEnv(20)
	self := ptrAt("1111", 0, 1)
	n := NewNode(quietConfig(), env, Observer{}, self)
	defer func() {
		if recover() == nil {
			t.Fatal("self-bootstrap did not panic")
		}
	}()
	n.Join(self, nil)
}

func TestWarmUpStartsWeakAndRises(t *testing.T) {
	env := newFakeEnv(21)
	cfg := quietConfig()
	cfg.WarmUp = true
	cfg.ShiftCheckInterval = 10 * des.Second
	self := ptrAt("1111", 0, 1)
	n := NewNode(cfg, env, Observer{}, self)
	boot := ptrAt("0000", 0, 40)

	n.Join(boot, nil)
	req := env.takeType(wire.MsgTopListReq)
	n.HandleMessage(wire.Message{Type: wire.MsgTopListResp, From: boot.Addr, To: 1,
		AckID: req[0].AckID, Pointers: []wire.Pointer{boot}})
	q := env.takeType(wire.MsgJoinQuery)
	// Equal budgets → estimate 0; warm-up starts at 0+2 = 2.
	n.HandleMessage(wire.Message{Type: wire.MsgJoinInfo, From: boot.Addr, To: 1,
		AckID: q[0].AckID, Cost: uint64(cfg.ThresholdBits), Sender: boot})
	plr := env.takeType(wire.MsgPeerListReq)
	if int(plr[0].Sender.Level) != 2 {
		t.Fatalf("warm-up join requested level %d, want 2", plr[0].Sender.Level)
	}
	inPrefix := ptrAt("1110", 2, 60)
	n.HandleMessage(wire.Message{Type: wire.MsgPeerListResp, From: boot.Addr, To: 1,
		AckID: plr[0].AckID, Pointers: []wire.Pointer{inPrefix}})
	tlr := env.takeType(wire.MsgTopListReq)
	n.HandleMessage(wire.Message{Type: wire.MsgTopListResp, From: boot.Addr, To: 1,
		AckID: tlr[0].AckID, Pointers: []wire.Pointer{boot}})
	rep := env.takeType(wire.MsgReport)
	n.HandleMessage(wire.Message{Type: wire.MsgReportAck, From: boot.Addr, To: 1,
		AckID: rep[0].AckID})
	if n.Level() != 2 {
		t.Fatalf("joined at level %d, want the weak warm-up level 2", n.Level())
	}
	// The background warm-up raises toward the target, one level per
	// step, downloading from the strongest known node each time.
	for want := 1; want >= 0; want-- {
		env.run(cfg.ShiftCheckInterval + des.Millisecond)
		plr := env.takeType(wire.MsgPeerListReq)
		if len(plr) == 0 {
			t.Fatalf("warm-up raise to %d never requested a download", want)
		}
		n.HandleMessage(wire.Message{Type: wire.MsgPeerListResp, From: plr[0].To, To: 1,
			AckID: plr[0].AckID})
		if n.Level() != want {
			t.Fatalf("level = %d want %d", n.Level(), want)
		}
		env.take()
	}
}

// pooledFakeEnv is a fakeEnv whose nodes draw their storage from one
// shared pool, as a simulator cluster's nodes do.
type pooledFakeEnv struct {
	*fakeEnv
	pool *ChunkPool
}

func (e pooledFakeEnv) ChunkPool() *ChunkPool { return e.pool }

// TestStopCancelsEverything: Stop on a joined node with all six timer
// slots and all three deadline queues armed, and on a node in the middle of its join,
// leaves nothing armed, queued or pending, gives every chunk and stamp
// leaf back to the shared pool, never calls the join's done, and the
// nodes neither send nor answer anything afterwards.
func TestStopCancelsEverything(t *testing.T) {
	fake := newFakeEnv(22)
	env := pooledFakeEnv{fake, new(ChunkPool)}
	cfg := quietConfig()
	cfg.ProbeInterval = 10 * des.Second
	cfg.ForwardDelay = des.Second
	cfg.RefreshEnabled = true
	peer := ptrAt("0100", 0, 10)
	peer.Info = []byte("info")
	n := NewNode(cfg, env, Observer{}, ptrAt("0000", 0, 1))
	n.Restore(0, []wire.Pointer{peer, ptrAt("1000", 0, 11)}, []wire.Pointer{ptrAt("1100", 0, 12)})
	n.rememberCrossPart(nodeid.EigenstringOf(ptrAt("1110", 0, 0).ID, 3), []wire.Pointer{ptrAt("1110", 0, 13)})
	// The two slots Restore leaves idle: warm-up and reconcile.
	n.warmUpTimer.arm(cfg.ShiftCheckInterval)
	n.reconcileTimer.arm(des.Minute)
	// A forward awaiting its ack, an event waiting out ForwardDelay, a
	// heartbeat waiting out ProbeTimeout and a self-defense waiting out
	// AckTimeout.
	deliver(n, peer, 1)
	fake.run(des.Second)
	deliver(n, peer, 2)
	n.probeOnce()
	n.applyEvent(wire.Event{Kind: wire.EventLeave, Subject: n.Self(), Seq: 1})
	slots := map[string]*timerSlot{"probe": &n.probeTimer, "shift": &n.shiftTimer, "refresh": &n.refreshTimer,
		"warm-up": &n.warmUpTimer, "reconcile": &n.reconcileTimer, "defend": &n.defendTimer}
	if len(slots) != len(n.timerSlots()) {
		t.Fatalf("the test arms %d slots, the node has %d", len(slots), len(n.timerSlots()))
	}
	for name, s := range slots {
		if !s.armed() {
			t.Fatalf("%s slot not armed before Stop", name)
		}
	}
	if n.acks.len() == 0 || n.probeWaits.len() == 0 || n.hops.len() == 0 {
		t.Fatalf("before Stop: %d acks, %d probe waits, %d hops queued; want some of each",
			n.acks.len(), n.probeWaits.len(), n.hops.len())
	}
	if n.dedup.n == 0 || n.peers.info == nil || len(n.topList) == 0 || len(n.crossTop) == 0 {
		t.Fatal("before Stop: no dedup record, info table, top list or part table")
	}
	// A second node in the middle of its join, through the first.
	joiner := NewNode(cfg, env, Observer{}, ptrAt("0010", 0, 2))
	done := false
	joiner.Join(n.Self(), func(error) { done = true })
	if joiner.pending.n != 1 {
		t.Fatalf("joiner has %d sends pending, want its join step", joiner.pending.n)
	}

	nodes := []*Node{n, joiner}
	for _, x := range nodes {
		x.Stop()
		if !x.Stopped() || x.Joined() {
			t.Fatalf("node %d: stopped %v, joined %v after Stop", x.Self().Addr, x.Stopped(), x.Joined())
		}
		checkNode(t, x)
		if x.acks.len()+x.probeWaits.len()+x.hops.len() != 0 || x.pending.n != 0 || x.pending.slots != nil {
			t.Fatalf("node %d: a queue or the pending ring holds work after Stop", x.Self().Addr)
		}
		if x.peers.Len() != 0 || x.peers.dir != nil || x.topList != nil || x.crossTop != nil {
			t.Fatalf("node %d: peer list, top list or part table held after Stop", x.Self().Addr)
		}
	}
	if armed := fake.engine.Pending(); armed != 0 {
		t.Fatalf("%d timers still armed after Stop", armed)
	}
	if err := env.pool.CheckInvariants([]*PeerList{&n.peers, &joiner.peers}); err != nil {
		t.Fatal(err)
	}
	if err := env.pool.CheckStorage(nodes); err != nil {
		t.Fatal(err)
	}
	if env.pool.interned != 0 {
		t.Fatalf("%d chunks still interned after Stop", env.pool.interned)
	}
	fake.take()
	fake.run(des.Hour)
	if msgs := fake.take(); len(msgs) != 0 {
		t.Fatalf("stopped nodes still sent %d messages", len(msgs))
	}
	if done {
		t.Fatal("the stopped join called its done")
	}
	// Messages to a stopped node are ignored.
	n.HandleMessage(wire.Message{Type: wire.MsgJoinQuery, From: 9, To: 1, AckID: 1})
	if msgs := fake.take(); len(msgs) != 0 {
		t.Fatal("stopped node answered a message")
	}
}

// TestMembershipStartsOnlyFromIdle: Bootstrap, Restore and Join each
// panic on a node that is joining, joined or stopped.
func TestMembershipStartsOnlyFromIdle(t *testing.T) {
	boot := ptrAt("1000", 0, 2)
	joining := func(n *Node) { n.Join(boot, nil) }
	starts := map[string]func(*Node){
		"Bootstrap": (*Node).Bootstrap,
		"Restore":   func(n *Node) { n.Restore(0, nil, nil) },
		"Join":      joining,
	}
	phases := map[string]func(*Node){
		"joining": joining,
		"joined":  (*Node).Bootstrap,
		"stopped": (*Node).Stop,
	}
	for start, op := range starts {
		for phase, enter := range phases {
			t.Run(start+" on a "+phase+" node", func(t *testing.T) {
				n := NewNode(quietConfig(), newFakeEnv(24), Observer{}, ptrAt("0000", 0, 1))
				enter(n)
				defer func() {
					if recover() == nil {
						t.Fatalf("%s on a %s node did not panic", start, phase)
					}
					checkNode(t, n)
				}()
				op(n)
			})
		}
	}
}

func TestSetThresholdValidation(t *testing.T) {
	env := newFakeEnv(23)
	n := newTopNode(t, env)
	n.SetThreshold(123)
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive threshold did not panic")
		}
	}()
	n.SetThreshold(0)
}

func TestDedupStateBounded(t *testing.T) {
	env := newFakeEnv(60)
	cfg := quietConfig()
	cfg.ShiftCheckInterval = 10 * des.Second
	n := NewNode(cfg, env, Observer{}, ptrAt("0000", 0, 1))
	n.Restore(0, nil, nil)
	env.take()
	// A long parade of join+leave pairs for distinct subjects.
	rng := xrand.New(61)
	seq := uint64(1000)
	for i := 0; i < 20000; i++ {
		id := nodeid.ID{Hi: rng.Uint64(), Lo: rng.Uint64()}
		subj := wire.Pointer{Addr: wire.Addr(100 + i), ID: id, Level: 0}
		seq++
		n.applyEvent(wire.Event{Kind: wire.EventJoin, Subject: subj, Seq: seq})
		seq++
		n.applyEvent(wire.Event{Kind: wire.EventLeave, Subject: subj, Seq: seq})
		if i%500 == 0 {
			env.run(cfg.ShiftCheckInterval + des.Millisecond)
			env.take()
		}
	}
	env.run(cfg.ShiftCheckInterval + des.Millisecond)
	records, sequenced := 0, 0
	for _, s := range n.dedup.slots {
		if s.r != (dedupRec{}) {
			records++
		}
		if s.r.seq != 0 {
			sequenced++
		}
	}
	if records > 4*n.peers.Len()+2048 {
		t.Fatalf("dedup table grew unbounded: %d records for %d peers",
			records, n.peers.Len())
	}
	if records != n.dedup.n || sequenced != n.dedup.sequenced {
		t.Fatalf("%d records, %d carrying a sequence; the table counts %d, %d",
			records, sequenced, n.dedup.n, n.dedup.sequenced)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	env := newFakeEnv(70)
	peers := []wire.Pointer{ptrAt("0100", 0, 10), ptrAt("1000", 0, 11)}
	tops := []wire.Pointer{ptrAt("0010", 0, 12)}
	n := NewNode(quietConfig(), env, Observer{}, ptrAt("0000", 0, 1))
	n.Restore(0, peers, tops)
	level, ps, ts := n.Snapshot()
	if level != 0 || len(ps) != 2 || len(ts) != 1 {
		t.Fatalf("snapshot = %d/%d/%d", level, len(ps), len(ts))
	}
	// A successor process restores from the snapshot and has the same
	// view.
	env2 := newFakeEnv(71)
	n2 := NewNode(quietConfig(), env2, Observer{}, ptrAt("0000", 0, 1))
	n2.Restore(level, ps, ts)
	if n2.Peers().Len() != n.Peers().Len() {
		t.Fatal("restored peer list differs")
	}
	if len(n2.TopList()) != len(n.TopList()) {
		t.Fatal("restored top list differs")
	}
}
