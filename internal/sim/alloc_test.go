package sim

import (
	"runtime"
	"testing"

	"peerwindow/internal/des"
	"peerwindow/internal/workload"
)

// A sliding window of timestamps far exceeding the initial capacity
// must stabilise the buffer at ~2x the live window, never regrow: the
// copy-down compaction keeps the base array where the old front-reslice
// bled capacity on every burst.
func TestPruneTimesCapacityStabilises(t *testing.T) {
	buf := make([]des.Time, 0, 8)
	const live = 100
	maxCap := 0
	for i := 0; i < 50000; i++ {
		buf = append(buf, des.Time(i))
		pruneTimes(&buf, des.Time(i-live))
		if cap(buf) > maxCap {
			maxCap = cap(buf)
		}
	}
	// Amortised compaction keeps at most a dead prefix the size of the
	// live tail, so the steady-state need is ~2·live; the cap should be
	// within one append-doubling of that, not proportional to the 50000
	// appends.
	if maxCap > 8*live {
		t.Fatalf("buffer capacity grew to %d for a live window of %d", maxCap, live)
	}
}

func TestPruneTimesCounts(t *testing.T) {
	buf := []des.Time{1, 2, 3, 10, 20}
	if n := pruneTimes(&buf, 4); n != 2 {
		t.Fatalf("live = %d, want 2", n)
	}
	if len(buf) != 2 || buf[0] != 10 || buf[1] != 20 {
		t.Fatalf("buffer after prune = %v", buf)
	}
	// No dead prefix: nothing moves, count unchanged.
	if n := pruneTimes(&buf, 4); n != 2 || len(buf) != 2 {
		t.Fatalf("second prune changed state: n=%d buf=%v", n, len(buf))
	}
	// Everything dead.
	if n := pruneTimes(&buf, 100); n != 0 || len(buf) != 0 {
		t.Fatalf("full prune left n=%d len=%d", n, len(buf))
	}
}

// The rate query itself must not allocate.
func TestRateOfDoesNotAllocate(t *testing.T) {
	s := NewScaled(DefaultScaledConfig(2000, 5))
	s.Run(10 * des.Minute)
	if allocs := testing.AllocsPerRun(200, func() { s.eventRate() }); allocs != 0 {
		t.Fatalf("eventRate allocates %v per call", allocs)
	}
}

// Steady churn must not regrow the pre-sized rate buffers: after the
// warm-up reaches the stationary regime, further simulated hours leave
// both capacities untouched.
func TestScaledRateBuffersDoNotRegrow(t *testing.T) {
	cfg := DefaultScaledConfig(2000, 5)
	cfg.Workload.LifetimeRate = 5 // brisker churn makes regrowth visible fast
	s := NewScaled(cfg)
	s.Run(20 * des.Minute)
	churnCap, eventCap := cap(s.churnTimes), cap(s.eventTimes)
	s.Run(40 * des.Minute)
	if cap(s.churnTimes) != churnCap {
		t.Fatalf("churnTimes regrew: %d -> %d", churnCap, cap(s.churnTimes))
	}
	if cap(s.eventTimes) != eventCap {
		t.Fatalf("eventTimes regrew: %d -> %d", eventCap, cap(s.eventTimes))
	}
}

// BenchmarkScaledChurnAllocs is the alloc-regression guard for the
// churn hot path: allocations per simulated event must stay flat (the
// per-event flightEvent and doneAt allocations), not grow with run
// length as the leaking rate buffers made them.
func BenchmarkScaledChurnAllocs(b *testing.B) {
	cfg := DefaultScaledConfig(5000, 11)
	cfg.Workload.LifetimeRate = 2
	s := NewScaled(cfg)
	s.Run(10 * des.Minute) // reach the stationary regime before measuring
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(des.Minute)
	}
}

// TestClusterSteadyStateAllocBudget is the end-to-end guard of the
// message path's allocation diet: a seeded 200-node cluster under churn
// (the cluster_churn benchmark workload in miniature) must stay within a
// malloc budget per simulated message. The pinned message and bit counts
// are the parent commit's, from before deliveries, timers and pending
// sends were pooled and SizeBits became arithmetic — equal counts prove
// the diet moved no protocol behaviour and no wire size.
func TestClusterSteadyStateAllocBudget(t *testing.T) {
	c := NewCluster(ClusterConfig{Core: DefaultFullCore(), Seed: 1})
	wl := workload.DefaultConfig()
	const target = 200
	c.WarmStart(target, wl, 2)
	ch := NewChurn(c, ChurnConfig{Workload: wl, TargetPopulation: target, CrashFraction: 0.5})
	ch.Start()
	c.Run(2 * des.Minute) // every periodic timer has fired once; the pools are warm

	msgs0, bits0 := c.MessagesSent, c.BitsSent
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c.Run(6 * des.Minute)
	runtime.ReadMemStats(&after)
	ch.Stop()

	msgs, bits := c.MessagesSent-msgs0, c.BitsSent-bits0
	const wantMsgs, wantBits = 15634, 5663576
	if msgs != wantMsgs || bits != wantBits {
		t.Errorf("window carried msgs=%d bits=%d, parent commit carried msgs=%d bits=%d", msgs, bits, wantMsgs, wantBits)
	}
	perMsg := float64(after.Mallocs-before.Mallocs) / float64(msgs)
	t.Logf("%d messages, %.3f mallocs/message", msgs, perMsg)
	if perMsg > 6.5 {
		t.Errorf("%.3f mallocs per message, budget 6.5", perMsg)
	}
}

// TestClusterHeapPerHeldPointer guards the peer-list footprint, the
// memory cost that grows as O(N) per node: after a seeded 1,000-node warm
// start (the cluster_churn benchmark shape), the live heap divided by
// the pointers held across all peer lists must stay at or below 64 B. A
// stored slot is 48 B with the pointer's info out of line; the rest is
// append's geometric slack and the per-node state spread over ~1,000
// pointers each. Slots holding a full wire.Pointer measured 80 B here.
func TestClusterHeapPerHeldPointer(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := NewCluster(ClusterConfig{Core: DefaultFullCore(), Seed: 1})
	c.WarmStart(1000, workload.DefaultConfig(), 2)
	runtime.GC()
	runtime.ReadMemStats(&after)

	held := 0
	for _, sn := range c.Nodes() {
		held += sn.Node.Peers().Len()
	}
	runtime.KeepAlive(c)
	perPtr := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(held)
	t.Logf("%d pointers held, %.1f B of heap per pointer", held, perPtr)
	if perPtr > 64 {
		t.Errorf("%.1f B of heap per held pointer, budget 64", perPtr)
	}
}
