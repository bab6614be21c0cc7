package query

import (
	"fmt"
	"sync/atomic"
	"testing"

	"peerwindow/internal/core"
	"peerwindow/internal/wire"
	"peerwindow/internal/xrand"
)

// benchStore builds a store holding n entries with realistic attached
// infos, plus the ID list for lookup driving.
func benchStore(n int) (*Store, []wire.Pointer) {
	s := NewStore(nil)
	rng := xrand.New(42)
	oses := []string{"linux", "plan9", "openbsd", "darwin"}
	roles := []string{"db", "cache", "edge", "archive"}
	ps := make([]wire.Pointer, n)
	for i := 0; i < n; i++ {
		info := fmt.Sprintf("os=%s;role=%s;slot=%d",
			oses[rng.Intn(len(oses))], roles[rng.Intn(len(roles))], i%97)
		p := ptr(fmt.Sprintf("bench-%d", i), rng.Intn(8), info)
		s.PeerAdded(p)
		ps[i] = p
	}
	return s, ps
}

func BenchmarkViewGet10k(b *testing.B) {
	s, ps := benchStore(10_000)
	v := s.View()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := v.Get(ps[i%len(ps)].ID); !ok {
			b.Fatal("lookup miss")
		}
	}
}

func BenchmarkViewStrongest10k(b *testing.B) {
	s, _ := benchStore(10_000)
	v := s.View()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(v.Strongest(8)) != 8 {
			b.Fatal("short result")
		}
	}
}

// BenchmarkViewWithField10k is an unselective field query: about a
// quarter of the window matches, so copying the result dominates.
func BenchmarkViewWithField10k(b *testing.B) {
	s, _ := benchStore(10_000)
	v := s.View()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(v.WithField("os=plan9")) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkViewWithFieldSelective10k is query_mixed's field query: one
// value of 97, about 1 % of the window, so the per-bucket lookups cost
// more than copying the result.
func BenchmarkViewWithFieldSelective10k(b *testing.B) {
	s, _ := benchStore(10_000)
	v := s.View()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(v.WithField("slot=13")) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkViewInfoContains10k(b *testing.B) {
	s, _ := benchStore(10_000)
	v := s.View()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(v.InfoContains("role=archive")) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkWindowInfoContainsScan10k(b *testing.B) {
	// The pre-redesign baseline: linear scan over a materialized window.
	s, ps := benchStore(10_000)
	_ = s
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, p := range ps {
			if containsSub(p.Info, "role=archive") {
				n++
			}
		}
		if n == 0 {
			b.Fatal("empty result")
		}
	}
}

func containsSub(b []byte, sub string) bool {
	if len(sub) == 0 {
		return true
	}
	for i := 0; i+len(sub) <= len(b); i++ {
		if string(b[i:i+len(sub)]) == sub {
			return true
		}
	}
	return false
}

func BenchmarkApplyDelta10k(b *testing.B) {
	// Cost of one window mutation: COW insert + index maintenance +
	// publish, at a steady 10k-entry population.
	s, ps := benchStore(10_000)
	rng := xrand.New(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := rng.Intn(len(ps))
		up := ps[j]
		up.Level = uint8(i % 8)
		s.PeerUpdated(ps[j], up)
		ps[j] = up
	}
}

// churnWriter starts a goroutine applying continuous window churn (adds,
// updates, removes) to the store — the single writer the store's contract
// allows. It returns a stop function reporting how many mutations landed.
func churnWriter(s *Store, ps []wire.Pointer) (stop func() uint64) {
	done := make(chan struct{})
	finished := make(chan struct{})
	var mutations atomic.Uint64
	go func() {
		defer close(finished)
		rng := xrand.New(99)
		local := append([]wire.Pointer(nil), ps...)
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			switch {
			case rng.Intn(4) == 0:
				j := rng.Intn(len(local))
				s.PeerRemoved(local[j], core.RemoveStale)
				local[j] = ptr(fmt.Sprintf("churn-%d", i), rng.Intn(8), "os=linux;role=db;fresh=1")
				s.PeerAdded(local[j])
			default:
				j := rng.Intn(len(local))
				up := local[j]
				up.Level = uint8(rng.Intn(8))
				s.PeerUpdated(local[j], up)
				local[j] = up
			}
			mutations.Add(1)
		}
	}()
	return func() uint64 {
		close(done)
		<-finished
		return mutations.Load()
	}
}

// BenchmarkLookupsUnderChurn10k is the acceptance benchmark for the
// redesign: parallel ID lookups against a 10k-entry store while the
// writer goroutine applies continuous churn. The reported ops/sec is the
// aggregate lookup rate; the acceptance floor is 1M lookups/sec.
func BenchmarkLookupsUnderChurn10k(b *testing.B) {
	s, ps := benchStore(10_000)
	stop := churnWriter(s, ps)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := xrand.New(3)
		for pb.Next() {
			// IDs of replaced entries miss; both outcomes are lookups.
			s.View().Get(ps[rng.Intn(len(ps))].ID)
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(stop()), "mutations")
}

// BenchmarkMixedReadsUnderChurn10k runs a representative read mix —
// point lookups, strongest-k, a selective field query (~1% of the
// window) and the O(1) level aggregate — under the same active churn.
func BenchmarkMixedReadsUnderChurn10k(b *testing.B) {
	s, ps := benchStore(10_000)
	stop := churnWriter(s, ps)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := xrand.New(3)
		i := 0
		for pb.Next() {
			v := s.View()
			switch i % 4 {
			case 0:
				v.Get(ps[rng.Intn(len(ps))].ID)
			case 1:
				v.Strongest(8)
			case 2:
				v.WithField("slot=13")
			case 3:
				v.MinLevel()
			}
			i++
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(stop()), "mutations")
}

// BenchmarkBulkFieldReadsUnderChurn10k isolates the worst read shape: an
// unselective field query materializing ~25% of the window per call,
// racing the writer (whose removes and adds leave a bucket without its
// lazily built field index; its level-only updates hand the index on).
func BenchmarkBulkFieldReadsUnderChurn10k(b *testing.B) {
	s, ps := benchStore(10_000)
	stop := churnWriter(s, ps)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			s.View().WithField("os=plan9")
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(stop()), "mutations")
}

// BenchmarkFieldIndexBuild is the cost a reader pays the first time a
// field query touches a bucket no earlier view indexed, for each of
// fieldShapes' full buckets. ns/field is per field occurrence, so the
// shapes compare per unit of input.
func BenchmarkFieldIndexBuild(b *testing.B) {
	for _, c := range fieldShapes() {
		occ := 0
		for i := range c.ents {
			c.ents[i].eachField(func(string) { occ++ })
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildFieldIndex(c.ents)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(occ), "ns/field")
		})
	}
}
