package sim

import (
	"testing"

	"peerwindow/internal/core"
	"peerwindow/internal/des"
	"peerwindow/internal/metrics"
	"peerwindow/internal/trace"
	"peerwindow/internal/wire"
)

// TestChurnStopCancelsPendingArrival: Stop must cancel the armed arrival
// event, not just flag it, so the queue can drain to quiescence once the
// scheduled departures fire.
func TestChurnStopCancelsPendingArrival(t *testing.T) {
	c := smallCluster(t, 1, 41)
	wl := shortLifeWorkload(10 * des.Minute)
	ch := NewChurn(c, ChurnConfig{Workload: wl, TargetPopulation: 4})
	before := c.Engine.Pending()
	ch.Start() // one departure for the bootstrap node + one arrival
	if got := c.Engine.Pending(); got != before+2 {
		t.Fatalf("after Start: %d pending events, want %d", got, before+2)
	}
	ch.Stop()
	if got := c.Engine.Pending(); got != before+1 {
		t.Fatalf("after Stop: %d pending events, want %d (the arrival must be cancelled)", got, before+1)
	}
}

// TestUnknownDestSendIsCounted: a message to an address the cluster never
// assigned must land in net.send.unknown_dest rather than vanish.
func TestUnknownDestSendIsCounted(t *testing.T) {
	c := smallCluster(t, 2, 42)
	sn := c.Alive()[0]
	sn.Send(wire.Message{Type: wire.MsgHeartbeat, To: wire.Addr(9999)})
	snap := c.NetMetrics()
	if got := snap.Counters[metrics.MetricNetSendUnknownDest]; got != 1 {
		t.Fatalf("unknown-dest counter = %d, want 1", got)
	}
	// A well-addressed send must not bump it.
	sn.Send(wire.Message{Type: wire.MsgHeartbeat, To: c.Alive()[1].Addr})
	if got := c.NetMetrics().Counters[metrics.MetricNetSendUnknownDest]; got != 1 {
		t.Fatalf("unknown-dest counter = %d after a valid send, want 1", got)
	}
}

// TestQuiescentWithin: with only far-future periodic timers pending, the
// cluster reports quiescence for short horizons but not long ones.
func TestQuiescentWithin(t *testing.T) {
	cfg := ClusterConfig{Core: core.DefaultConfig(), Seed: 43}
	c := NewCluster(cfg)
	first := c.AddNode(1e9)
	c.Bootstrap(first)
	// Drain everything due in the next second; what remains is periodic
	// machinery (probe ~30s out, shift check ~30s out).
	c.Run(des.Second)
	if !c.QuiescentWithin(5 * des.Second) {
		t.Fatal("cluster not quiescent within 5s despite only periodic timers pending")
	}
	if c.QuiescentWithin(des.Hour) {
		t.Fatal("cluster quiescent within an hour despite armed periodic timers")
	}
}

// TestClusterTimerCancelAfterFire: the engine-side half of a timer is a
// pooled record, so a Cancel that arrives after the fire (or after an
// earlier Cancel) must be a no-op that cannot reach the successor now
// using the record.
func TestClusterTimerCancelAfterFire(t *testing.T) {
	c := smallCluster(t, 1, 44) // one node: only periodic timers, 30 s out
	sn := c.Alive()[0]
	fired := 0
	first := sn.SetTimer(des.Second, func() { fired++ })
	c.Run(2 * des.Second)
	if fired != 1 {
		t.Fatalf("first timer fired %d times, want 1", fired)
	}
	second := sn.SetTimer(des.Second, func() { fired += 10 })
	if second.(*simTimer).fire != first.(*simTimer).fire {
		t.Fatal("the successor did not recycle the fired timer's record; the case is not exercised")
	}
	if first.Cancel() {
		t.Fatal("Cancel after fire reported a pending timer")
	}
	c.Run(2 * des.Second)
	if fired != 11 {
		t.Fatalf("fired = %d, want 11: the stale Cancel disarmed the successor", fired)
	}

	third := sn.SetTimer(des.Second, func() { fired += 100 })
	if !third.Cancel() || third.Cancel() {
		t.Fatal("Cancel of a pending timer must report true once, then false")
	}
	fourth := sn.SetTimer(des.Second, func() { fired += 1000 })
	if fourth.(*simTimer).fire != third.(*simTimer).fire {
		t.Fatal("the successor did not recycle the cancelled timer's record; the case is not exercised")
	}
	if third.Cancel() || second.Cancel() {
		t.Fatal("a stale Cancel reported a pending timer")
	}
	c.Run(2 * des.Second)
	if fired != 1011 {
		t.Fatalf("fired = %d, want 1011: exactly the fourth timer on top", fired)
	}
}

// dropSeq is a chooser that drops the event with one sequence number.
type dropSeq uint64

func (s dropSeq) Choose(_ des.Time, choices []des.Choice) des.Decision {
	for i, ch := range choices {
		if ch.Seq == uint64(s) {
			return des.Decision{Index: i, Drop: true}
		}
	}
	panic("sim: delivery to drop is not runnable")
}

// TestClusterDroppedDeliveryIsRecycled: a delivery the model checker
// drops never fires, goes back to the pool through NoteDropped, and the
// next send that reuses the record is delivered intact.
func TestClusterDroppedDeliveryIsRecycled(t *testing.T) {
	spans := trace.NewSpanBuffer(64) // a span sink makes the cluster track deliveries in flight
	c := NewCluster(ClusterConfig{Core: core.DefaultConfig(), Seed: 45, Spans: spans})
	a, b := c.AddNode(1e9), c.AddNode(1e9)
	c.Bootstrap(a)
	if err := c.Join(b, a, des.Hour); err != nil {
		t.Fatal(err)
	}
	c.Run(5 * des.Second)
	if len(c.inflight) != 0 {
		t.Fatalf("%d deliveries still in flight in a settled cluster", len(c.inflight))
	}

	inFlight := func() *delivery {
		t.Helper()
		if len(c.inflight) != 1 {
			t.Fatalf("%d deliveries in flight, want 1", len(c.inflight))
		}
		for _, d := range c.inflight {
			return d
		}
		return nil
	}
	acks := c.SentByType[wire.MsgHeartbeatAck]
	a.Send(wire.Message{Type: wire.MsgHeartbeat, From: a.Addr, To: b.Addr, AckID: 77})
	lost := inFlight()
	c.Engine.SetChooser(dropSeq(lost.seq))
	c.Engine.Step()
	c.Engine.SetChooser(nil)
	c.NoteDropped(lost.seq)
	if c.Engine.Dropped() != 1 || len(c.inflight) != 0 {
		t.Fatalf("dropped=%d inflight=%d after the drop", c.Engine.Dropped(), len(c.inflight))
	}

	a.Send(wire.Message{Type: wire.MsgHeartbeat, From: a.Addr, To: b.Addr, AckID: 78})
	next := inFlight()
	if next != lost {
		t.Fatal("the next send did not recycle the dropped delivery's record; the case is not exercised")
	}
	if next.dst != b || next.msg.AckID != 78 || next.msg.Type != wire.MsgHeartbeat {
		t.Fatalf("recycled delivery carries dst=%v msg=%+v", next.dst.Addr, next.msg)
	}
	c.Run(des.Second)
	if got := c.SentByType[wire.MsgHeartbeatAck] - acks; got != 1 {
		t.Fatalf("b answered %d heartbeats, want 1: the dropped one must not fire, the next one must", got)
	}
}
