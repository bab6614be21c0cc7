package sim

import (
	"math"
	"testing"

	"peerwindow/internal/core"
	"peerwindow/internal/des"
	"peerwindow/internal/trace"
)

// TestCrashMetricsMatchTrace is the observability cross-check the issue
// asks for: in a fully deterministic seeded run, crash one node and
// verify that the probe counters and the detection-latency histogram
// agree exactly with the protocol moments recorded as spans — same
// failure count, same retry count, same round count, and a histogram sum
// equal to the per-detection probe-round→declaration gaps read off the
// timeline.
func TestCrashMetricsMatchTrace(t *testing.T) {
	spans := trace.NewSpanBuffer(1 << 16)
	c := NewCluster(ClusterConfig{Core: core.DefaultConfig(), Seed: 42, Spans: spans})
	first := c.AddNode(1e9)
	c.Bootstrap(first)
	for i := 1; i < 10; i++ {
		sn := c.AddNode(1e9)
		if err := c.Join(sn, c.RandomJoined(sn), des.Hour); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		c.Run(30 * des.Second)
	}
	c.Run(2 * des.Minute)

	victim := c.Alive()[4]
	c.Kill(victim)
	// Probe interval 30 s, timeout 5 s × 3 attempts: ten minutes is
	// ample for the ring probe to declare the crash and multicast it.
	c.Run(10 * des.Minute)

	var rounds, retries, failures, latCount uint64
	var latSum float64
	for _, sn := range c.Alive() {
		s := sn.Node.MetricsSnapshot()
		rounds += s.Counters[core.MetricProbeRounds]
		retries += s.Counters[core.MetricProbeRetries]
		failures += s.Counters[core.MetricProbeFailures]
		h := s.Histograms[core.MetricProbeDetectLatency]
		latCount += h.Count
		latSum += h.Sum
	}
	if failures == 0 {
		t.Fatal("no probe failure recorded after the crash")
	}
	if latCount != failures {
		t.Fatalf("detect-latency histogram has %d observations, probe.failures = %d", latCount, failures)
	}

	// The same story must be told by the spans. They arrive oldest-first;
	// survivors' counters exclude the victim, so do we.
	if spans.Total() > 1<<16 {
		t.Fatalf("span buffer overflowed: %d spans recorded", spans.Total())
	}
	dead := uint64(victim.Addr)
	kinds := make(map[trace.SpanKind]uint64)
	// Timeline check: each detection's latency is the gap back to the
	// detecting node's most recent probe-round; the histogram sums
	// exactly these gaps (in virtual seconds). Walk the spans in order —
	// a declaration can share its timestamp with the round that follows
	// it, so "most recent" means record order, not timestamp order.
	lastRound := make(map[uint64]trace.Span)
	var wantSum float64
	// perNode counts each survivor's tree spans: every multicast is traced
	// (the sink was attached before the first node), so the multicast
	// counters must equal them node by node.
	perNode := make(map[uint64]map[trace.SpanKind]uint64)
	for _, s := range spans.Snapshot() {
		if s.Node == dead {
			continue
		}
		kinds[s.Kind]++
		if perNode[s.Node] == nil {
			perNode[s.Node] = make(map[trace.SpanKind]uint64)
		}
		perNode[s.Node][s.Kind]++
		switch s.Kind {
		case trace.SpanProbeRound:
			lastRound[s.Node] = s
		case trace.SpanProbeDetect:
			round, ok := lastRound[s.Node]
			if !ok || round.Child != s.Child {
				t.Fatalf("probe-detect by node %d of %d has no preceding probe-round of it", s.Node, s.Child)
			}
			wantSum += (s.At - round.At).Seconds()
		}
	}
	if got := kinds[trace.SpanProbeDetect]; got != failures {
		t.Fatalf("%d probe-detect spans, counters say %d", got, failures)
	}
	if got := kinds[trace.SpanProbeRetry]; got != retries {
		t.Fatalf("%d probe-retry spans, counters say %d", got, retries)
	}
	if got := kinds[trace.SpanProbeRound]; got != rounds {
		t.Fatalf("%d probe-round spans, counters say %d", got, rounds)
	}
	if math.Abs(wantSum-latSum) > 1e-6 {
		t.Fatalf("histogram sum %.9f s, span timeline says %.9f s", latSum, wantSum)
	}
	for _, sn := range c.Alive() {
		s := sn.Node.MetricsSnapshot()
		got := perNode[uint64(sn.Addr)]
		for _, pair := range []struct {
			metric string
			kind   trace.SpanKind
		}{
			{core.MetricMulticastDelivered, trace.SpanDeliver},
			{core.MetricMulticastForwards, trace.SpanForward},
			{core.MetricMulticastOriginated, trace.SpanOrigin},
		} {
			if s.Counters[pair.metric] != got[pair.kind] {
				t.Fatalf("node %d: %s = %d, %d %s spans", sn.Addr, pair.metric, s.Counters[pair.metric], got[pair.kind], pair.kind)
			}
		}
	}
	if kinds[trace.SpanDeliver] == 0 || kinds[trace.SpanOrigin] == 0 {
		t.Fatalf("no multicast recorded: %d deliver, %d origin spans", kinds[trace.SpanDeliver], kinds[trace.SpanOrigin])
	}
	// And a detection cannot be instantaneous: it waits out at least one
	// probe timeout.
	if latSum < (core.DefaultConfig().ProbeTimeout).Seconds() {
		t.Fatalf("summed detection latency %.3f s is below a single probe timeout", latSum)
	}
	t.Logf("probe.rounds=%d probe.retries=%d probe.failures=%d detect latency mean=%.1fs",
		rounds, retries, failures, latSum/float64(latCount))
}
