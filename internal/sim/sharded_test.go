package sim

import (
	"testing"

	"peerwindow/internal/des"
	"peerwindow/internal/workload"
)

// The sharded scaled simulator must replay bit-identically for every
// shard and worker count: digests over the complete node state, the
// figure-5 level shares, and the figure-9-style metrics all have to
// match shards=1 exactly.
func TestShardedScaledShardCountInvariance(t *testing.T) {
	type snap struct {
		digest uint64
		pop    int
		events uint64
		levels []int
	}
	run := func(shards, workers int) snap {
		cfg := DefaultShardedScaledConfig(3000, 1234, shards)
		cfg.Workers = workers
		s := NewShardedScaled(cfg)
		s.Run(45 * des.Minute)
		return snap{s.Digest(), s.Population(), s.EventsExecuted(), s.LevelCounts()}
	}
	base := run(1, 1)
	if base.pop == 0 || base.events == 0 {
		t.Fatalf("baseline run did nothing: %+v", base)
	}
	for _, tc := range []struct{ shards, workers int }{
		{2, 1}, {8, 1}, {8, 4}, {256, 3},
	} {
		got := run(tc.shards, tc.workers)
		if got.digest != base.digest {
			t.Errorf("shards=%d workers=%d: digest %x != baseline %x",
				tc.shards, tc.workers, got.digest, base.digest)
		}
		if got.pop != base.pop || got.events != base.events {
			t.Errorf("shards=%d workers=%d: pop/events %d/%d != baseline %d/%d",
				tc.shards, tc.workers, got.pop, got.events, base.pop, base.events)
		}
		if len(got.levels) != len(base.levels) {
			t.Errorf("shards=%d: level counts %v != %v", tc.shards, got.levels, base.levels)
			continue
		}
		for l := range got.levels {
			if got.levels[l] != base.levels[l] {
				t.Errorf("shards=%d: level counts %v != %v", tc.shards, got.levels, base.levels)
				break
			}
		}
	}
}

// Re-running the same configuration must reproduce the same digest —
// the baseline determinism the shard invariance builds on.
func TestShardedScaledSeedReproducibility(t *testing.T) {
	run := func() uint64 {
		s := NewShardedScaled(DefaultShardedScaledConfig(2000, 99, 4))
		s.Run(20 * des.Minute)
		return s.Digest()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different digests: %x vs %x", a, b)
	}
}

// Different seeds must not collide (a digest that ignores state would
// pass the invariance tests trivially).
func TestShardedScaledDigestSensitivity(t *testing.T) {
	run := func(seed uint64) uint64 {
		s := NewShardedScaled(DefaultShardedScaledConfig(2000, seed, 4))
		s.Run(20 * des.Minute)
		return s.Digest()
	}
	if a, b := run(1), run(2); a == b {
		t.Fatalf("different seeds, same digest %x", a)
	}
}

// The sharded scaled metrics surface must be sane at eight shards:
// population near target, levels populated, error rates finite.
func TestShardedScaledMetricsSane(t *testing.T) {
	cfg := DefaultShardedScaledConfig(5000, 7, 8)
	s := NewShardedScaled(cfg)
	s.Run(30 * des.Minute)
	s.ResetTraffic()
	s.Run(15 * des.Minute)
	pop := s.Population()
	if pop < 4000 || pop > 6000 {
		t.Fatalf("population %d drifted from target 5000", pop)
	}
	total := 0
	for _, c := range s.LevelCounts() {
		total += c
	}
	if total != pop {
		t.Fatalf("level counts sum %d != population %d", total, pop)
	}
	for l, a := range s.ErrorRates(500) {
		if a.N() > 0 && (a.Mean() < 0 || a.Mean() > 1) {
			t.Fatalf("level %d error rate %v out of [0,1]", l, a.Mean())
		}
	}
	in, _ := s.Bandwidth()
	anyTraffic := false
	for _, a := range in {
		if a.N() > 0 && a.Mean() > 0 {
			anyTraffic = true
		}
	}
	if !anyTraffic {
		t.Fatalf("no input bandwidth recorded")
	}
	if bytes, nodes := s.MemoryFootprint(); nodes != pop || bytes == 0 {
		t.Fatalf("MemoryFootprint = %d bytes, %d nodes (pop %d)", bytes, nodes, pop)
	}
}

// The full-fidelity sharded cluster must produce bit-identical protocol
// state (core.Node.AppendDigest) for every shard and worker count: the
// real state machines, real messages, real timers — only the scheduling
// is different.
func TestShardedClusterShardCountInvariance(t *testing.T) {
	run := func(shards, workers int) (uint64, uint64) {
		sc := NewShardedCluster(ShardedClusterConfig{
			Core:    DefaultFullCore(),
			Seed:    4242,
			Shards:  shards,
			Workers: workers,
		})
		sc.WarmStart(200, workload.DefaultConfig(), 2)
		sc.Run(12 * des.Minute)
		return sc.StateDigest(), sc.EventsExecuted()
	}
	baseDigest, baseEvents := run(1, 1)
	if baseEvents == 0 {
		t.Fatalf("baseline run executed no events")
	}
	for _, tc := range []struct{ shards, workers int }{
		{4, 1}, {8, 1}, {8, 4},
	} {
		d, e := run(tc.shards, tc.workers)
		if d != baseDigest {
			t.Errorf("shards=%d workers=%d: state digest %x != baseline %x",
				tc.shards, tc.workers, d, baseDigest)
		}
		if e != baseEvents {
			t.Errorf("shards=%d workers=%d: %d events != baseline %d",
				tc.shards, tc.workers, e, baseEvents)
		}
	}
}

// Cross-shard messages must actually flow (otherwise the invariance
// test proves nothing): with 8 shards, a 200-node warm-started overlay
// probes and reports across prefix boundaries constantly.
func TestShardedClusterCrossShardTraffic(t *testing.T) {
	sc := NewShardedCluster(ShardedClusterConfig{
		Core:   DefaultFullCore(),
		Seed:   4242,
		Shards: 8,
	})
	sc.WarmStart(200, workload.DefaultConfig(), 2)
	sc.Run(12 * des.Minute)
	if sc.MessagesSent() == 0 {
		t.Fatalf("no messages sent")
	}
	crossed := uint64(0)
	for i := range sc.outbox {
		crossed += sc.outbox[i].Drained()
	}
	if crossed == 0 {
		t.Fatalf("no cross-shard messages crossed a barrier")
	}
	t.Logf("messages=%d cross-shard=%d", sc.MessagesSent(), crossed)
}
