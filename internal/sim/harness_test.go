package sim

import (
	"testing"

	"peerwindow/internal/core"
	"peerwindow/internal/des"
	"peerwindow/internal/invariant"
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

// TestClusterTimerCancelAfterFire pins the core.Timer contract as the
// simulator keeps it. A node never cancels a fired or cancelled handle, so
// the record behind it is free for the next SetTimer: arming and firing a
// timer allocates nothing. Under pwinvariants records are never reused,
// and the forbidden Cancel panics instead.
func TestClusterTimerCancelAfterFire(t *testing.T) {
	c := NewCluster(ClusterConfig{Core: core.DefaultConfig(), Seed: 44})
	sn := c.AddNode(1e9) // never joined, so it arms no timers of its own
	fired := 0
	tick := func() { fired++ }
	first := sn.SetTimer(des.Second, tick)
	c.Run(2 * des.Second)
	if fired != 1 {
		t.Fatalf("first timer fired %d times, want 1", fired)
	}
	if invariant.Enabled {
		mustPanic(t, "Cancel after fire", func() { first.Cancel() })
		second := sn.SetTimer(des.Second, tick)
		if !second.Cancel() {
			t.Fatal("Cancel of a pending timer reported it spent")
		}
		mustPanic(t, "Cancel after Cancel", func() { second.Cancel() })
		return
	}

	second := sn.SetTimer(des.Second, tick)
	if second != first {
		t.Fatal("the next SetTimer did not reuse the fired timer's record")
	}
	if !second.Cancel() {
		t.Fatal("Cancel of a pending timer reported it spent")
	}
	third := sn.SetTimer(des.Second, tick)
	if third != second {
		t.Fatal("the next SetTimer did not reuse the cancelled timer's record")
	}
	c.Run(2 * des.Second)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2: the cancelled timer ran or the third did not", fired)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		sn.SetTimer(des.Second, tick)
		c.Run(2 * des.Second)
	}); allocs != 0 {
		t.Fatalf("arming and firing a timer allocates %v", allocs)
	}
}

// mustPanic fails t unless fn panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// dropDelivery is a chooser that drops the first runnable message
// delivery.
type dropDelivery struct{}

func (dropDelivery) Choose(_ des.Time, choices []des.Choice) des.Decision {
	for i, ch := range choices {
		if ch.Tag.Kind == TagDeliver {
			return des.Decision{Index: i, Drop: true}
		}
	}
	panic("sim: no delivery to drop is runnable")
}

// TestClusterDroppedDeliveryIsRecycled: a delivery the model checker
// drops never fires, records the drop span and goes back to the pool
// through its Drop, and the next send that reuses the record is
// delivered intact.
func TestClusterDroppedDeliveryIsRecycled(t *testing.T) {
	spans := trace.NewSpanBuffer(64)
	c := NewCluster(ClusterConfig{Core: core.DefaultConfig(), Seed: 45, Spans: spans})
	a, b := c.AddNode(1e9), c.AddNode(1e9)
	c.Bootstrap(a)
	if err := c.Join(b, a, des.Hour); err != nil {
		t.Fatal(err)
	}
	c.Run(5 * des.Second)
	// With nothing in flight, every delivery record is on the free list.
	if err := c.deliveries.Check("delivery", nil, nil); err != nil {
		t.Fatalf("a settled cluster holds a delivery: %v", err)
	}
	drops := func() (k int) {
		for _, s := range spans.Snapshot() {
			if s.Kind == trace.SpanDrop && s.Child == uint64(b.Addr) {
				k++
			}
		}
		return k
	}

	acks := c.SentByType[wire.MsgHeartbeatAck]
	a.Send(wire.Message{Type: wire.MsgHeartbeat, From: a.Addr, To: b.Addr, AckID: 77})
	if c.deliveries.Check("delivery", nil, nil) == nil {
		t.Fatal("the send holds no delivery record; the case is not exercised")
	}
	c.Engine.SetChooser(dropDelivery{})
	c.Engine.Step()
	c.Engine.SetChooser(nil)
	if c.Engine.Dropped() != 1 || drops() != 1 {
		t.Fatalf("dropped=%d, %d drop spans after the drop; want 1 and 1", c.Engine.Dropped(), drops())
	}
	if err := c.deliveries.Check("delivery", nil, nil); err != nil {
		t.Fatalf("the dropped delivery did not go back to the pool: %v", err)
	}

	lost := c.deliveries.Get() // the free list's head: the record just dropped
	c.deliveries.Put(lost)
	made := c.deliveries.Made()
	a.Send(wire.Message{Type: wire.MsgHeartbeat, From: a.Addr, To: b.Addr, AckID: 78})
	if c.deliveries.Made() != made || lost.dst != b {
		t.Fatal("the next send did not recycle the dropped delivery's record; the case is not exercised")
	}
	if lost.msg.AckID != 78 || lost.msg.Type != wire.MsgHeartbeat {
		t.Fatalf("recycled delivery carries msg=%+v", lost.msg)
	}
	c.Run(des.Second)
	if got := c.SentByType[wire.MsgHeartbeatAck] - acks; got != 1 {
		t.Fatalf("b answered %d heartbeats, want 1: the dropped one must not fire, the next one must", got)
	}
}
