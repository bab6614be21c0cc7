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

// TestSharedChunkEditsDoNotAllocate pins the shared pool's edit paths:
// once the pool's free list and scratch are warm, a level change (a new
// shared chunk), a remove and a re-insert on two lists sharing every
// chunk allocate nothing.
func TestSharedChunkEditsDoNotAllocate(t *testing.T) {
	pool := &ChunkPool{}
	a, b := &PeerList{pool: pool}, &PeerList{pool: pool}
	_, ps := allocList(512)
	a.MergeSorted(ps, 0, nil, nil)
	b.MergeSorted(ps, 0, nil, nil)
	i := 0
	round := func() {
		p := ps[i%len(ps)]
		for _, pl := range []*PeerList{a, b} {
			q := p
			q.Level++
			pl.Upsert(q, 1)
			pl.Remove(p.ID)
			pl.Upsert(p, 2)
		}
		i++
	}
	for range len(ps) {
		round()
	}
	if allocs := testing.AllocsPerRun(1000, round); allocs != 0 {
		t.Fatalf("shared edits allocate %v per round", allocs)
	}
	if err := pool.CheckInvariants([]*PeerList{a, b}); err != nil {
		t.Fatal(err)
	}
}

// countingEnv is an Env that does no work of its own: it keeps the last
// message sent and the armed timers in reused storage, so every
// allocation a guard sees is the node's. Time moves only when a timer
// fires: now advances to that timer's deadline.
type countingEnv struct {
	now    des.Time
	rng    *xrand.Source
	sends  int
	timers int // SetTimer calls
	last   wire.Message
	armed  []armedTimer
}

// armedTimer is one timer waiting in a countingEnv.
type armedTimer struct {
	at des.Time
	fn func()
}

type nopTimer struct{}

func (nopTimer) Cancel() bool { return true }

func (e *countingEnv) Now() des.Time         { return e.now }
func (e *countingEnv) Rand() *xrand.Source   { return e.rng }
func (e *countingEnv) Send(msg wire.Message) { e.sends++; e.last = msg }
func (e *countingEnv) SetTimer(d des.Time, fn func()) Timer {
	e.timers++
	e.armed = append(e.armed, armedTimer{at: e.now + d, fn: fn})
	return nopTimer{}
}

// fireArmed runs and forgets the timers armed so far, earliest deadline
// first, advancing now to each one's deadline; timers they arm in turn
// stay armed.
func (e *countingEnv) fireArmed() {
	k := len(e.armed)
	for i := 1; i < k; i++ { // insertion sort: sort.Slice would allocate
		for j := i; j > 0 && e.armed[j].at < e.armed[j-1].at; j-- {
			e.armed[j], e.armed[j-1] = e.armed[j-1], e.armed[j]
		}
	}
	for i := 0; i < k; i++ {
		t := e.armed[i]
		if t.at > e.now {
			e.now = t.at
		}
		t.fn()
	}
	clear(e.armed[:k])
	e.armed = e.armed[:copy(e.armed, e.armed[k:])]
}

// disarm forgets every armed timer, as if each had been cancelled.
func (e *countingEnv) disarm() { e.armed = e.armed[:0] }

// messagePathNode builds a level-0 node with the paper's 1 s ForwardDelay
// and a single peer on the other side of bit 0, so every fresh event about
// that peer is forwarded exactly once (to the peer, at step 0).
func messagePathNode() (*Node, *countingEnv, wire.Pointer) {
	env := &countingEnv{rng: xrand.New(1), armed: make([]armedTimer, 0, 8)}
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
// lets the forward delay expire (and any timer armed before it) and
// returns the ack id of the one forward.
func freshEvent(n *Node, env *countingEnv, peer wire.Pointer, seq uint64) uint64 {
	n.HandleMessage(wire.Message{
		Type: wire.MsgEvent, From: peer.Addr, To: 1, AckID: seq,
		Event: wire.Event{Kind: wire.EventInfoChange, Subject: peer, Seq: seq},
	})
	env.fireArmed() // the forward hop; leaves the ack queue's timer armed
	return env.last.AckID
}

// The recv → HandleMessage → send path for event, ack and heartbeat works
// out of the per-node pendingSend pool, the ack and hop deadline queues
// and the arithmetic SizeBits; once they are warm it must not allocate at
// all.
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
	if n.pending.n != 0 {
		t.Fatalf("%d sends still pending after their acks", n.pending.n)
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
	if n.pending.n != 0 {
		t.Fatalf("%d sends still pending after their acks", n.pending.n)
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
	rec := n.pending.get(first)
	n.HandleMessage(wire.Message{Type: wire.MsgAck, From: peer.Addr, To: 1, AckID: first})
	if n.pending.n != 0 {
		t.Fatal("ack did not resolve the send")
	}

	// The ack queue's timer, armed for the first send, stays armed: it
	// fires after the second forward and finds the first entry answered.
	second := freshEvent(n, env, peer, 2)
	if n.pending.get(second) != rec {
		t.Fatal("the second send did not recycle the first one's record; the case is not exercised")
	}
	n.HandleMessage(wire.Message{Type: wire.MsgAck, From: peer.Addr, To: 1, AckID: first}) // late duplicate
	if n.pending.get(second) != rec || rec.id != second || rec.msg.Event.Seq != 2 {
		t.Fatalf("late ack %d disturbed the recycled record now serving send %d: %+v", first, second, rec)
	}
	if n.acks.len() != 1 || n.acks.front().v != second || !n.acks.timer.armed() {
		t.Fatalf("ack queue holds %d entries (timer armed: %v), want only send %d's",
			n.acks.len(), n.acks.timer.armed(), second)
	}
	if n.m.ackRetries.Value() != 0 {
		t.Fatal("the answered first send was retried")
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
	if n.pending.get(second) != nil || n.m.ackFailures.Value() != 1 || n.m.mcRedirects.Value() != 1 {
		t.Fatalf("after the attempt budget: still pending=%v failures=%d redirects=%d",
			n.pending.get(second) != nil, n.m.ackFailures.Value(), n.m.mcRedirects.Value())
	}
	// What is pending now is the verification heartbeat to the silent peer.
	if n.pending.n != 1 || env.last.Type != wire.MsgHeartbeat || n.pending.get(env.last.AckID).kind != sendVerify {
		t.Fatalf("no verification round followed the failed step: %d pending, last sent %v", n.pending.n, env.last.Type)
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

// The periodic timers are slots bound once in NewNode, and a heartbeat's
// wait is an entry in the probe-wait queue, so a probe round, a shift
// check and a refresh tick re-arm without allocating.
func TestPeriodicTimersDoNotAllocate(t *testing.T) {
	env := &countingEnv{rng: xrand.New(1), armed: make([]armedTimer, 0, 8)}
	cfg := quietConfig()
	cfg.ProbeInterval = 30 * des.Second
	cfg.ShiftCheckInterval = 30 * des.Second
	cfg.RefreshEnabled, cfg.RefreshFloor = true, 30*des.Second
	peer := ptrAt("1000", 0, 2)
	n := NewNode(cfg, env, Observer{}, ptrAt("0000", 0, 1))
	n.Restore(0, []wire.Pointer{peer}, nil)

	// Each round fires the previous heartbeat's wait (answered, so a dead
	// tick), then the probe round, the shift check and the refresh tick,
	// and answers the new heartbeat.
	round := func() {
		env.fireArmed()
		if env.last.Type != wire.MsgHeartbeat || env.last.To != peer.Addr {
			t.Fatalf("last send %v to %v, want a heartbeat to the peer", env.last.Type, env.last.To)
		}
		n.HandleMessage(wire.Message{Type: wire.MsgHeartbeatAck, From: peer.Addr, To: 1, AckID: env.last.AckID})
	}
	round() // warm the probe-wait queue
	const runs = 100
	timers, rounds := env.timers, n.m.probeRounds.Value()
	if allocs := testing.AllocsPerRun(runs, round); allocs != 0 {
		t.Errorf("probe round, shift check and refresh tick: %v allocs per round, want 0", allocs)
	}
	if got := n.m.probeRounds.Value() - rounds; got != runs+1 {
		t.Fatalf("%d probe rounds in %d rounds", got, runs+1)
	}
	// Per round: the three periodic re-arms and the probe-wait queue's.
	if got := env.timers - timers; got != 4*(runs+1) {
		t.Fatalf("%d timers armed in %d rounds, want 4 each", got, runs+1)
	}
	checkNode(t, n)
}

// A self-announcement by a node below a stronger peer is a reliable
// report to a top node whose continuation is data in its record: once
// the pools are warm, the round allocates only the shuffled copy of the
// top-node list the report walks.
func TestReportPathAllocations(t *testing.T) {
	env := &countingEnv{rng: xrand.New(1), armed: make([]armedTimer, 0, 8)}
	n := NewNode(quietConfig(), env, Observer{}, ptrAt("0000", 1, 1))
	n.Restore(1, []wire.Pointer{ptrAt("0100", 0, 2)}, []wire.Pointer{ptrAt("1000", 0, 5), ptrAt("1100", 0, 6)})
	env.disarm() // the periodic timers never fire here
	round := func() {
		n.announce(wire.EventInfoChange)
		if env.last.Type != wire.MsgReport {
			t.Fatalf("last send %v, want a report", env.last.Type)
		}
		n.HandleMessage(wire.Message{Type: wire.MsgReportAck, From: env.last.To, To: 1, AckID: env.last.AckID})
		env.disarm()
	}
	round() // warm the pools
	if allocs := testing.AllocsPerRun(200, round); allocs > 1 {
		t.Errorf("self-announcement answered by its report ack: %v allocs per round, want at most 1", allocs)
	}
	if n.pending.n != 0 {
		t.Fatalf("%d sends still pending after their acks", n.pending.n)
	}
}
