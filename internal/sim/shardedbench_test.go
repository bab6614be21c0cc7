package sim

import (
	"testing"

	"peerwindow/internal/des"
)

// The scaled simulator at the paper's common scale: events/sec is the
// headline metric (wall time to push one virtual minute of churn at
// N=100,000). Sub-benchmarks cover shard counts so the conservative-window
// overhead is visible too. allocs/op is the churn hot path's
// alloc-regression guard: it must stay flat per simulated minute, not
// grow with run length.
func BenchmarkShardedScaledEvents100k(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(map[int]string{1: "shards1", 8: "shards8"}[shards], func(b *testing.B) {
			s := NewShardedScaled(DefaultShardedScaledConfig(100000, 1, shards))
			s.Run(10 * des.Minute)
			before := s.EventsExecuted()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Run(des.Minute)
			}
			b.StopTimer()
			b.ReportMetric(float64(s.EventsExecuted()-before)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// Million-node churn: the scale target of the SoA overhaul. Reports
// the measured node-state bytes/node next to throughput.
func BenchmarkShardedScaled1M(b *testing.B) {
	s := NewShardedScaled(DefaultShardedScaledConfig(1000000, 1, 8))
	s.Run(5 * des.Minute)
	before := s.EventsExecuted()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(des.Minute)
	}
	b.StopTimer()
	b.ReportMetric(float64(s.EventsExecuted()-before)/b.Elapsed().Seconds(), "events/sec")
	bytes, nodes := s.MemoryFootprint()
	b.ReportMetric(float64(bytes)/float64(nodes), "bytes/node")
}
