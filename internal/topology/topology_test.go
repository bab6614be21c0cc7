package topology

import (
	"testing"

	"peerwindow/internal/des"
	"peerwindow/internal/xrand"
)

func defaultNet(t testing.TB) *Network {
	t.Helper()
	return Generate(DefaultParams(), xrand.New(1))
}

func TestDefaultShapeMatchesPaper(t *testing.T) {
	n := defaultNet(t)
	// §5.1: 120 transit domains × 4 transit nodes × 5 stub domains × 2
	// stub nodes = 4800 stub nodes.
	if got := n.StubCount(); got != 4800 {
		t.Fatalf("StubCount = %d want 4800", got)
	}
}

func TestValidate(t *testing.T) {
	good := DefaultParams()
	if err := good.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := []func(*Params){
		func(p *Params) { p.TransitDomains = 0 },
		func(p *Params) { p.TransitNodesPerDomain = -1 },
		func(p *Params) { p.StubDomainsPerTransit = 0 },
		func(p *Params) { p.StubNodesPerStub = 0 },
		func(p *Params) { p.ExtraDomainEdges = -1 },
		func(p *Params) { p.NodeStub = -des.Millisecond },
	}
	for i, mutate := range bad {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestGeneratePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Generate with invalid params did not panic")
		}
	}()
	Generate(Params{}, xrand.New(1))
}

func TestLatencySymmetricAndPositive(t *testing.T) {
	n := defaultNet(t)
	rng := xrand.New(2)
	for i := 0; i < 2000; i++ {
		a := n.RandomAttachment(rng)
		b := n.RandomAttachment(rng)
		ab := n.Latency(a, b)
		ba := n.Latency(b, a)
		if ab != ba {
			t.Fatalf("latency asymmetric: %v vs %v", ab, ba)
		}
		if ab < 2*des.Millisecond {
			t.Fatalf("latency below the 2×node floor: %v", ab)
		}
	}
}

func TestLatencyTiers(t *testing.T) {
	p := DefaultParams()
	n := Generate(p, xrand.New(3))
	// Same stub router: just the two host access links.
	if got := n.Latency(0, 0); got != 2*des.Millisecond {
		t.Fatalf("same-stub latency = %v want 2ms", got)
	}
	// Stub routers 0 and 1 are siblings in the same stub domain.
	if got := n.Latency(0, 1); got != 7*des.Millisecond {
		t.Fatalf("same-stub-domain latency = %v want 7ms", got)
	}
	// Stub routers 0 and 2 hang off the same transit node, different
	// stub domains: 2 + 20 + 20.
	if got := n.Latency(0, 2); got != 42*des.Millisecond {
		t.Fatalf("same-transit-node latency = %v want 42ms", got)
	}
	// Same transit domain, different transit nodes: add one
	// transit-transit hop. Stub index stride per transit node is
	// StubDomainsPerTransit*StubNodesPerStub = 10.
	if got := n.Latency(0, 10); got != 142*des.Millisecond {
		t.Fatalf("same-transit-domain latency = %v want 142ms", got)
	}
	// Different transit domains: at least two transit hops. Stride per
	// domain is 40.
	if got := n.Latency(0, 40); got < 242*des.Millisecond {
		t.Fatalf("inter-domain latency = %v want >= 242ms", got)
	}
}

func TestTriangleInequalityHolds(t *testing.T) {
	// The hierarchical model should not produce pathological shortcuts:
	// check a sampled triangle inequality (allowing equality).
	n := defaultNet(t)
	rng := xrand.New(4)
	for i := 0; i < 500; i++ {
		a := n.RandomAttachment(rng)
		b := n.RandomAttachment(rng)
		c := n.RandomAttachment(rng)
		if n.Latency(a, c) > n.Latency(a, b)+n.Latency(b, c) {
			t.Fatalf("triangle violated for %d,%d,%d", a, b, c)
		}
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a := Generate(DefaultParams(), xrand.New(9))
	b := Generate(DefaultParams(), xrand.New(9))
	rng1 := xrand.New(5)
	rng2 := xrand.New(5)
	for i := 0; i < 1000; i++ {
		x1, y1 := a.RandomAttachment(rng1), a.RandomAttachment(rng1)
		x2, y2 := b.RandomAttachment(rng2), b.RandomAttachment(rng2)
		if x1 != x2 || y1 != y2 {
			t.Fatal("attachment streams diverged")
		}
		if a.Latency(x1, y1) != b.Latency(x2, y2) {
			t.Fatal("latencies diverged between identically seeded networks")
		}
	}
}

func TestDomainGraphConnected(t *testing.T) {
	// Every pairwise latency must be finite and bounded: the ring
	// guarantees dist <= D/2, so inter-domain latency is bounded by
	// 2 + 40 + (1+60)*100 ms.
	n := defaultNet(t)
	maxLat := 2*des.Millisecond + 40*des.Millisecond + 61*100*des.Millisecond
	rng := xrand.New(6)
	for i := 0; i < 5000; i++ {
		a := n.RandomAttachment(rng)
		b := n.RandomAttachment(rng)
		if got := n.Latency(a, b); got > maxLat {
			t.Fatalf("latency %v exceeds connectivity bound %v", got, maxLat)
		}
	}
}

func TestMeanLatencyPlausible(t *testing.T) {
	// With 120 domains, chords bring typical inter-domain distance down
	// to a few hops; mean end-to-end latency should land in the hundreds
	// of milliseconds — the same order as the paper's assumed ~500 ms
	// multicast step (§5.1).
	n := defaultNet(t)
	rng := xrand.New(7)
	const samples = 20000
	var sum des.Time
	for i := 0; i < samples; i++ {
		sum += n.Latency(n.RandomAttachment(rng), n.RandomAttachment(rng))
	}
	mean := sum / samples
	if mean < 100*des.Millisecond || mean > 1200*des.Millisecond {
		t.Fatalf("mean latency %v outside plausible range", mean)
	}
}

func TestSingleDomainTopology(t *testing.T) {
	p := DefaultParams()
	p.TransitDomains = 1
	p.ExtraDomainEdges = 0
	n := Generate(p, xrand.New(8))
	if n.StubCount() != 40 {
		t.Fatalf("StubCount = %d want 40", n.StubCount())
	}
	rng := xrand.New(9)
	for i := 0; i < 200; i++ {
		a := n.RandomAttachment(rng)
		b := n.RandomAttachment(rng)
		if got := n.Latency(a, b); got > 142*des.Millisecond {
			t.Fatalf("intra-domain latency too large: %v", got)
		}
	}
}

func TestParamsAccessor(t *testing.T) {
	n := defaultNet(t)
	if n.Params().TransitDomains != 120 {
		t.Fatal("Params accessor lost configuration")
	}
}

func BenchmarkLatency(b *testing.B) {
	n := Generate(DefaultParams(), xrand.New(1))
	rng := xrand.New(2)
	pairs := make([][2]Attachment, 1024)
	for i := range pairs {
		pairs[i] = [2]Attachment{n.RandomAttachment(rng), n.RandomAttachment(rng)}
	}
	b.ResetTimer()
	var sink des.Time
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		sink += n.Latency(p[0], p[1])
	}
	_ = sink
}

func TestLatencyJitterDeterministicSymmetricBounded(t *testing.T) {
	p := DefaultParams()
	p.LatencyJitter = 0.25
	n := Generate(p, xrand.New(11))
	base := Generate(DefaultParams(), xrand.New(11))
	rng := xrand.New(12)
	varied := false
	for i := 0; i < 2000; i++ {
		a := n.RandomAttachment(rng)
		b := n.RandomAttachment(rng)
		j1 := n.Latency(a, b)
		j2 := n.Latency(a, b)
		if j1 != j2 {
			t.Fatal("jitter not deterministic per pair")
		}
		if n.Latency(b, a) != j1 {
			t.Fatal("jitter broke symmetry")
		}
		exact := base.Latency(a, b)
		lo := float64(exact) * 0.749
		hi := float64(exact) * 1.251
		if float64(j1) < lo || float64(j1) > hi {
			t.Fatalf("jittered latency %v outside ±25%% of %v", j1, exact)
		}
		if j1 != exact {
			varied = true
		}
	}
	if !varied {
		t.Fatal("jitter had no effect at all")
	}
}

func TestLatencyJitterValidation(t *testing.T) {
	p := DefaultParams()
	p.LatencyJitter = 1.0
	if err := p.Validate(); err == nil {
		t.Fatal("jitter >= 1 should be invalid")
	}
	p.LatencyJitter = -0.1
	if err := p.Validate(); err == nil {
		t.Fatal("negative jitter should be invalid")
	}
}
