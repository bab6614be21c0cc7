// Package topology generates Transit-Stub internetwork models in the style
// of GT-ITM (Zegura et al., the paper's ref [20]) and answers latency
// queries between overlay nodes attached to them.
//
// The paper's common experiment (§5.1) uses 120 transit domains of 4
// transit nodes each; every transit node has 5 stub domains of 2 stub nodes
// each (4800 stub nodes total), and ~20 overlay nodes attach to each stub
// node to reach the 100,000-node scale. Per-hop latencies are fixed
// constants: transit–transit 100 ms, transit–stub 20 ms, stub–stub 5 ms,
// and node–stub 1 ms.
//
// Latency between two overlay endpoints is computed hierarchically:
//
//	same stub node                 2·node
//	same stub domain               2·node + stub
//	same transit node              2·node + 2·transitStub
//	same transit domain            2·node + 2·transitStub + transit
//	different transit domains      2·node + 2·transitStub + (1+dist)·transit
//
// where dist is the hop distance between the two transit domains in the
// random inter-domain graph (a ring plus random chords, so it is always
// connected). This preserves the paper's latency scales — and therefore
// the multicast-delay behaviour the error-rate results hinge on — without
// depending on the original GT-ITM binary.
package topology

import (
	"fmt"

	"peerwindow/internal/des"
	"peerwindow/internal/xrand"
)

// Params describes the transit-stub model shape and per-hop latencies.
type Params struct {
	TransitDomains        int // number of transit domains
	TransitNodesPerDomain int // transit routers per transit domain
	StubDomainsPerTransit int // stub domains hanging off each transit node
	StubNodesPerStub      int // stub routers per stub domain

	// ExtraDomainEdges is the number of random chords added to the
	// inter-transit-domain ring; more chords shorten inter-domain paths.
	ExtraDomainEdges int

	// LatencyJitter widens each pair's latency by a deterministic
	// per-pair factor in [1-J, 1+J]; 0 keeps the hierarchical constants
	// exact. Jitter is a pure function of the endpoint pair so repeated
	// queries (and the reverse direction) agree.
	LatencyJitter float64

	TransitTransit des.Time // latency of one transit–transit hop
	TransitStub    des.Time // latency of the transit–stub access link
	StubStub       des.Time // latency of one stub–stub hop inside a domain
	NodeStub       des.Time // latency from an end host to its stub router
}

// DefaultParams returns the exact configuration of the paper's common
// experiment (§5.1).
func DefaultParams() Params {
	return Params{
		TransitDomains:        120,
		TransitNodesPerDomain: 4,
		StubDomainsPerTransit: 5,
		StubNodesPerStub:      2,
		ExtraDomainEdges:      120,
		TransitTransit:        100 * des.Millisecond,
		TransitStub:           20 * des.Millisecond,
		StubStub:              5 * des.Millisecond,
		NodeStub:              1 * des.Millisecond,
	}
}

// Validate reports whether the parameters describe a buildable model.
func (p Params) Validate() error {
	switch {
	case p.TransitDomains <= 0:
		return fmt.Errorf("topology: TransitDomains = %d", p.TransitDomains)
	case p.TransitNodesPerDomain <= 0:
		return fmt.Errorf("topology: TransitNodesPerDomain = %d", p.TransitNodesPerDomain)
	case p.StubDomainsPerTransit <= 0:
		return fmt.Errorf("topology: StubDomainsPerTransit = %d", p.StubDomainsPerTransit)
	case p.StubNodesPerStub <= 0:
		return fmt.Errorf("topology: StubNodesPerStub = %d", p.StubNodesPerStub)
	case p.ExtraDomainEdges < 0:
		return fmt.Errorf("topology: ExtraDomainEdges = %d", p.ExtraDomainEdges)
	case p.LatencyJitter < 0 || p.LatencyJitter >= 1:
		return fmt.Errorf("topology: LatencyJitter = %g", p.LatencyJitter)
	case p.TransitTransit < 0 || p.TransitStub < 0 || p.StubStub < 0 || p.NodeStub < 0:
		return fmt.Errorf("topology: negative latency")
	}
	return nil
}

// Attachment identifies a stub router an overlay node attaches to; values
// are dense indices in [0, Network.StubCount()).
type Attachment int32

// Network is an immutable generated topology. Latency queries are safe for
// concurrent use.
type Network struct {
	params Params

	// Per stub router: which stub domain, transit node and transit domain
	// it belongs to.
	stubDomain    []int32
	transitNode   []int32
	transitDomain []int32

	// domainDist[a*D+b] is the hop distance between transit domains a and
	// b in the inter-domain graph.
	domainDist []uint8
	domains    int
}

// Generate builds a topology from the parameters using the supplied
// deterministic random source (for the inter-domain chords). It panics on
// invalid parameters; call Validate first for a recoverable error.
func Generate(p Params, rng *xrand.Source) *Network {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	d := p.TransitDomains
	stubCount := d * p.TransitNodesPerDomain * p.StubDomainsPerTransit * p.StubNodesPerStub
	n := &Network{
		params:        p,
		stubDomain:    make([]int32, stubCount),
		transitNode:   make([]int32, stubCount),
		transitDomain: make([]int32, stubCount),
		domains:       d,
	}
	// Lay stub routers out hierarchically so indices are contiguous per
	// stub domain, which makes sibling relationships trivially computable.
	idx := 0
	stubDomainID := int32(0)
	for dom := 0; dom < d; dom++ {
		for tn := 0; tn < p.TransitNodesPerDomain; tn++ {
			transitID := int32(dom*p.TransitNodesPerDomain + tn)
			for sd := 0; sd < p.StubDomainsPerTransit; sd++ {
				for sn := 0; sn < p.StubNodesPerStub; sn++ {
					n.stubDomain[idx] = stubDomainID
					n.transitNode[idx] = transitID
					n.transitDomain[idx] = int32(dom)
					idx++
				}
				stubDomainID++
			}
		}
	}
	n.buildDomainGraph(rng)
	return n
}

// buildDomainGraph creates the inter-transit-domain graph (ring plus
// random chords) and precomputes all-pairs hop distances by BFS from each
// domain. With the default 120 domains this is trivially cheap.
func (n *Network) buildDomainGraph(rng *xrand.Source) {
	d := n.domains
	adj := make([][]int32, d)
	addEdge := func(a, b int) {
		adj[a] = append(adj[a], int32(b))
		adj[b] = append(adj[b], int32(a))
	}
	if d > 1 {
		for i := 0; i < d; i++ {
			addEdge(i, (i+1)%d)
		}
		for i := 0; i < n.params.ExtraDomainEdges; i++ {
			a := rng.Intn(d)
			b := rng.Intn(d)
			if a != b {
				addEdge(a, b)
			}
		}
	}
	n.domainDist = make([]uint8, d*d)
	queue := make([]int32, 0, d)
	seen := make([]bool, d)
	for src := 0; src < d; src++ {
		for i := range seen {
			seen[i] = false
		}
		queue = queue[:0]
		queue = append(queue, int32(src))
		seen[src] = true
		n.domainDist[src*d+src] = 0
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, nb := range adj[cur] {
				if !seen[nb] {
					seen[nb] = true
					n.domainDist[src*d+int(nb)] = n.domainDist[src*d+int(cur)] + 1
					queue = append(queue, nb)
				}
			}
		}
	}
}

// Params returns the parameters the network was generated from.
func (n *Network) Params() Params { return n.params }

// StubCount returns the number of stub routers overlay nodes can attach
// to.
func (n *Network) StubCount() int { return len(n.stubDomain) }

// RandomAttachment picks a uniformly random stub router. Attaching ~20
// overlay nodes per stub router reproduces the paper's density.
func (n *Network) RandomAttachment(rng *xrand.Source) Attachment {
	return Attachment(rng.Intn(len(n.stubDomain)))
}

// Latency returns the one-way latency between overlay endpoints attached
// at a and b, per the hierarchical model in the package comment.
func (n *Network) Latency(a, b Attachment) des.Time {
	p := n.params
	base := 2 * p.NodeStub
	var lat des.Time
	switch {
	case a == b:
		lat = base
	case n.stubDomain[a] == n.stubDomain[b]:
		lat = base + p.StubStub
	case n.transitNode[a] == n.transitNode[b]:
		lat = base + 2*p.TransitStub
	case n.transitDomain[a] == n.transitDomain[b]:
		lat = base + 2*p.TransitStub + p.TransitTransit
	default:
		dist := des.Time(n.domainDist[int(n.transitDomain[a])*n.domains+int(n.transitDomain[b])])
		lat = base + 2*p.TransitStub + (1+dist)*p.TransitTransit
	}
	if p.LatencyJitter > 0 {
		lat = des.Time(float64(lat) * n.jitterFactor(a, b))
	}
	return lat
}

// jitterFactor derives the pair's deterministic widening factor in
// [1-J, 1+J] from a hash of the (order-normalised) endpoints.
func (n *Network) jitterFactor(a, b Attachment) float64 {
	if a > b {
		a, b = b, a
	}
	x := uint64(a)<<32 | uint64(b)
	// splitmix64 finalizer as the hash.
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	u := float64(x>>11) / (1 << 53) // [0,1)
	return 1 + n.params.LatencyJitter*(2*u-1)
}

// LatencyFloor returns a hard lower bound on the latency between any two
// distinct overlay endpoints: the same-stub-router case (2·NodeStub),
// shrunk by the worst-case jitter factor (1-J) and truncated the same
// way Latency truncates, so Latency(a, b) >= LatencyFloor() for every
// pair. This is the conservative-synchronization lookahead of the
// sharded simulator: no message sent at time t can take effect anywhere
// before t + floor, so shards may run ahead of each other by up to the
// floor without ever missing a cross-shard delivery.
func (n *Network) LatencyFloor() des.Time {
	floor := 2 * n.params.NodeStub
	if n.params.LatencyJitter > 0 {
		floor = des.Time(float64(floor) * (1 - n.params.LatencyJitter))
	}
	return floor
}
