package core

import (
	"testing"

	"peerwindow/internal/des"
	"peerwindow/internal/nodeid"
	"peerwindow/internal/trace"
	"peerwindow/internal/wire"
	"peerwindow/internal/xrand"
)

// allocList builds a warm peer list of n entries with ascending IDs and
// returns the (sorted) pointer batch it was built from.
func allocList(n int) (*PeerList, []wire.Pointer) {
	pl := &PeerList{}
	ps := make([]wire.Pointer, n)
	for i := range ps {
		ps[i] = wire.Pointer{
			Addr:  wire.Addr(i + 1),
			ID:    nodeid.ID{Hi: uint64(i+1) << 32, Lo: uint64(i)},
			Level: uint8(i % 8),
		}
		pl.Upsert(ps[i], 0)
	}
	return pl, ps
}

// The peer-list read and update-in-place paths carry //pwlint:noalloc
// contracts; these guards pin them at runtime.

func TestPeerListReadPathDoesNotAllocate(t *testing.T) {
	pl, ps := allocList(512)
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		p := ps[i%len(ps)]
		if _, ok := pl.Lookup(p.ID); !ok {
			t.Fatal("lookup miss")
		}
		if pl.MinLevel() != 0 {
			t.Fatal("bad min level")
		}
		if _, ok := pl.Strongest(); !ok {
			t.Fatal("no strongest")
		}
		i++
	}); allocs != 0 {
		t.Fatalf("read path allocates %v per round", allocs)
	}
}

func TestPeerListUpdateInPlaceDoesNotAllocate(t *testing.T) {
	pl, ps := allocList(512)
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		if pl.Upsert(ps[i%len(ps)], 2) {
			t.Fatal("update created a new entry")
		}
		i++
	}); allocs != 0 {
		t.Fatalf("in-place upsert allocates %v per call", allocs)
	}
}

func TestMergeSortedUpdateOnlyDoesNotAllocate(t *testing.T) {
	pl, ps := allocList(512)
	if allocs := testing.AllocsPerRun(100, func() {
		if n := pl.MergeSorted(ps, 3, nil, nil); n != 0 {
			t.Fatalf("update-only merge added %d entries", n)
		}
	}); allocs != 0 {
		t.Fatalf("update-only merge allocates %v per batch", allocs)
	}
}

// countingEnv is an Env that does no work of its own: it keeps the last
// message sent and the callbacks of armed timers in reused storage, so
// every allocation a guard sees is the node's.
type countingEnv struct {
	now   des.Time
	rng   *xrand.Source
	sends int
	last  wire.Message
	armed []func()
}

type nopTimer struct{}

func (nopTimer) Cancel() bool { return true }

func (e *countingEnv) Now() des.Time         { return e.now }
func (e *countingEnv) Rand() *xrand.Source   { return e.rng }
func (e *countingEnv) Send(msg wire.Message) { e.sends++; e.last = msg }
func (e *countingEnv) SetTimer(_ des.Time, fn func()) Timer {
	e.armed = append(e.armed, fn)
	return nopTimer{}
}

// fireArmed runs and forgets the timer callbacks armed so far; timers
// they arm in turn stay armed.
func (e *countingEnv) fireArmed() {
	k := len(e.armed)
	for i := 0; i < k; i++ {
		e.armed[i]()
	}
	e.armed = e.armed[:copy(e.armed, e.armed[k:])]
}

// disarm forgets every armed timer, as if each had been cancelled.
func (e *countingEnv) disarm() { e.armed = e.armed[:0] }

// messagePathNode builds a level-0 node with the paper's 1 s ForwardDelay
// and a single peer on the other side of bit 0, so every fresh event about
// that peer is forwarded exactly once (to the peer, at step 0).
func messagePathNode() (*Node, *countingEnv, wire.Pointer) {
	env := &countingEnv{rng: xrand.New(1), armed: make([]func(), 0, 8)}
	cfg := quietConfig()
	cfg.ForwardDelay = des.Second
	peer := ptrAt("1000", 0, 2)
	peer.Info = []byte("slot=13")
	n := NewNode(cfg, env, Observer{}, ptrAt("0000", 0, 1))
	n.Restore(0, []wire.Pointer{peer}, nil)
	env.disarm() // the periodic timers never fire here
	return n, env, peer
}

// freshEvent delivers an info change about peer with sequence number seq,
// lets the forward delay expire and returns the ack id of the one forward.
func freshEvent(n *Node, env *countingEnv, peer wire.Pointer, seq uint64) uint64 {
	n.HandleMessage(wire.Message{
		Type: wire.MsgEvent, From: peer.Addr, To: 1, AckID: seq,
		Event: wire.Event{Kind: wire.EventInfoChange, Subject: peer, Seq: seq},
	})
	env.fireArmed() // the forward hop; leaves the forward's retry timer armed
	return env.last.AckID
}

// The recv → HandleMessage → send path for event, ack and heartbeat works
// out of per-node pools (pendingSend, forwardHop) and the arithmetic
// SizeBits; once the pools are warm it must not allocate at all.
func TestMessagePathDoesNotAllocate(t *testing.T) {
	n, env, peer := messagePathNode()
	const runs = 200

	// A fresh event: ack, apply, forward-delay hop, one reliable forward.
	// The stated budget is zero.
	seq := uint64(0)
	var id uint64
	round := func() {
		seq++
		id = freshEvent(n, env, peer, seq)
		n.HandleMessage(wire.Message{Type: wire.MsgAck, From: peer.Addr, To: 1, AckID: id})
		env.disarm()
	}
	round() // warm the pools
	sends := env.sends
	if allocs := testing.AllocsPerRun(runs, round); allocs > 0 {
		t.Errorf("fresh event with one forward, then its ack: %v allocs per round, want 0", allocs)
	}
	if got := env.sends - sends; got != 2*(runs+1) {
		t.Fatalf("%d sends in %d rounds, want an ack and one forward each", got, runs+1)
	}
	if len(n.pending) != 0 {
		t.Fatalf("%d sends still pending after their acks", len(n.pending))
	}

	// A fresh event that changes the info of the held pointer: the info
	// table overwrites its entry in place.
	infos := [][]byte{[]byte("slot=14"), []byte("slot=15")}
	k := 0
	if allocs := testing.AllocsPerRun(runs, func() {
		changed := peer
		changed.Info = infos[k%len(infos)]
		k++
		seq++
		id = freshEvent(n, env, changed, seq)
		n.HandleMessage(wire.Message{Type: wire.MsgAck, From: peer.Addr, To: 1, AckID: id})
		env.disarm()
	}); allocs > 0 {
		t.Errorf("fresh event changing a held pointer's info: %v allocs per round, want 0", allocs)
	}
	if held, _ := n.peers.Lookup(peer.ID); string(held.Info) != string(infos[(k-1)%len(infos)]) {
		t.Fatalf("held info %q after the last change to %q", held.Info, infos[(k-1)%len(infos)])
	}

	// An ack that resolves a pending send, on its own.
	ids := make([]uint64, runs+1)
	for i := range ids {
		seq++
		ids[i] = freshEvent(n, env, peer, seq)
	}
	i := 0
	if allocs := testing.AllocsPerRun(runs, func() {
		n.HandleMessage(wire.Message{Type: wire.MsgAck, From: peer.Addr, To: 1, AckID: ids[i]})
		i++
	}); allocs != 0 {
		t.Errorf("ack resolving a pending send: %v allocs, want 0", allocs)
	}
	if len(n.pending) != 0 {
		t.Fatalf("%d sends still pending after their acks", len(n.pending))
	}
	env.disarm()

	// A duplicate event: acked, not applied, not forwarded.
	dup := wire.Message{
		Type: wire.MsgEvent, From: peer.Addr, To: 1, AckID: 9,
		Event: wire.Event{Kind: wire.EventInfoChange, Subject: peer, Seq: seq},
	}
	if allocs := testing.AllocsPerRun(runs, func() { n.HandleMessage(dup) }); allocs != 0 {
		t.Errorf("duplicate event: %v allocs, want 0", allocs)
	}
	if len(env.armed) != 0 || env.last.Type != wire.MsgAck {
		t.Fatal("duplicate event was forwarded")
	}

	// A heartbeat: answered, nothing else.
	hb := wire.Message{Type: wire.MsgHeartbeat, From: peer.Addr, To: 1, AckID: 3}
	if allocs := testing.AllocsPerRun(runs, func() { n.HandleMessage(hb) }); allocs != 0 {
		t.Errorf("heartbeat: %v allocs, want 0", allocs)
	}
	if env.last.Type != wire.MsgHeartbeatAck {
		t.Fatal("heartbeat not answered")
	}
}

// A late ack must not reach the send that has since recycled its record.
func TestLateAckForRecycledPendingSendIsIgnored(t *testing.T) {
	n, env, peer := messagePathNode()
	first := freshEvent(n, env, peer, 1)
	rec := n.pending[first]
	n.HandleMessage(wire.Message{Type: wire.MsgAck, From: peer.Addr, To: 1, AckID: first})
	if len(n.pending) != 0 {
		t.Fatal("ack did not resolve the send")
	}
	env.disarm()

	second := freshEvent(n, env, peer, 2)
	if n.pending[second] != rec {
		t.Fatal("the second send did not recycle the first one's record; the case is not exercised")
	}
	n.HandleMessage(wire.Message{Type: wire.MsgAck, From: peer.Addr, To: 1, AckID: first}) // late duplicate
	if n.pending[second] != rec || rec.id != second || rec.msg.Event.Seq != 2 || rec.timer == nil {
		t.Fatalf("late ack %d disturbed the recycled record now serving send %d: %+v", first, second, rec)
	}

	// The recycled send still times out, retries and fails as its own.
	retries := n.cfg.RetryAttempts - 1
	for i := 0; i < retries; i++ {
		env.fireArmed()
	}
	if got := n.m.ackRetries.Value(); got != uint64(retries) {
		t.Fatalf("%d retries, want %d", got, retries)
	}
	env.fireArmed()
	if n.pending[second] != nil || n.m.ackFailures.Value() != 1 || n.m.mcRedirects.Value() != 1 {
		t.Fatalf("after the attempt budget: still pending=%v failures=%d redirects=%d",
			n.pending[second] != nil, n.m.ackFailures.Value(), n.m.mcRedirects.Value())
	}
	// What is pending now is the verification heartbeat to the silent peer.
	if len(n.pending) != 1 || env.last.Type != wire.MsgHeartbeat || n.pending[env.last.AckID].kind != sendVerify {
		t.Fatalf("no verification round followed the failed step: %d pending, last sent %v", len(n.pending), env.last.Type)
	}
}

// nopSpans is a span sink that keeps nothing.
type nopSpans struct{}

func (nopSpans) RecordSpan(trace.Span) {}

// Recording a protocol moment — with or without an event, with no sink or
// with one — must not allocate: the probe, retry and origination paths
// record one on every call.
func TestMomentDoesNotAllocate(t *testing.T) {
	n, _, peer := messagePathNode()
	ev := wire.Event{Kind: wire.EventInfoChange, Subject: peer, Seq: 3}
	for _, sink := range []trace.SpanSink{nil, nopSpans{}} {
		n.SetSpanSink(sink)
		if allocs := testing.AllocsPerRun(200, func() {
			n.moment(trace.SpanProbeRetry, peer.Addr, 2)
			n.span(wire.TraceID{}, trace.SpanAckRetry, 0, peer.Addr, 1, ev)
		}); allocs != 0 {
			t.Errorf("sink %T: recording a moment allocates %v, want 0", sink, allocs)
		}
	}
}
