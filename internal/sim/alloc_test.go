package sim

import (
	"reflect"
	"runtime"
	"testing"

	"peerwindow/internal/des"
	"peerwindow/internal/workload"
)

// Steady churn must not regrow the scaled engine's rate and flight
// buffers: once a warm-up reaches the stationary regime, two more
// simulated hours leave the churn-rate log, the in-flight list and every
// shard's doneAt free list at their capacities. Compacting a buffer by
// reslicing its front instead of copying it down bleeds capacity and
// regrows it on every flash-crowd burst; returning doneAt buffers to the
// shards round-robin starves one shard while another's free list grows.
// Two shards make the second visible.
func TestShardedScaledSteadyStateDoesNotGrow(t *testing.T) {
	cfg := DefaultShardedScaledConfig(2000, 5, 2)
	cfg.Workload.LifetimeRate = 0.2 // brisker churn makes regrowth visible fast
	s := NewShardedScaled(cfg)
	s.Run(20 * des.Minute)
	caps := func() []int {
		c := []int{cap(s.churnLog), cap(s.inflight)}
		for _, sh := range s.shards {
			c = append(c, cap(sh.doneAtFree))
		}
		return c
	}
	before := caps()
	s.Run(2 * des.Hour)
	if after := caps(); !reflect.DeepEqual(after, before) {
		t.Fatalf("capacities (churnLog, inflight, doneAtFree per shard) changed: %v -> %v", before, after)
	}
	t.Logf("capacities (churnLog, inflight, doneAtFree per shard): %v", before)
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
