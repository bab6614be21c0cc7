package sim

import (
	"fmt"
	"math/bits"
	"sort"

	"peerwindow/internal/core"
	"peerwindow/internal/des"
	"peerwindow/internal/nodeid"
	"peerwindow/internal/oracle"
	"peerwindow/internal/shard"
	"peerwindow/internal/topology"
	"peerwindow/internal/wire"
	"peerwindow/internal/workload"
	"peerwindow/internal/xrand"
)

// ShardedCluster runs the full-fidelity simulation across several
// des.Engines: nodes are partitioned by identifier prefix (the top
// log2(Shards) bits — a node's eigenstring prefix at every level), each
// partition is one Cluster with its own engine, and the engines advance
// together in conservative windows bounded by the topology's latency
// floor. A message between shards cannot arrive sooner than the floor
// after it was sent, so a window that never runs past
// (min next event + floor) cannot miss a cross-shard delivery; the
// sends buffer in per-shard mailboxes and transfer at the
// single-threaded window barrier.
//
// Determinism does not come from the windows alone — it comes from tie
// keys. Every delivery and timer carries a (sender address, issue
// counter) key, and every engine orders same-instant events by key, so
// the event order is a pure function of the simulation regardless of
// how nodes are grouped into shards or how many workers drive them: the
// same seed yields bit-identical node states (core.Node.AppendDigest)
// for Shards=1 and Shards=8 alike. That invariance is what licenses
// running protocol experiments sharded: the sharded run is not an
// approximation of the serial one, it IS the serial one, re-scheduled.
//
// Fidelity restrictions: loss injection, tracing and span sinks are
// per-message random or order-sensitive observers that would break the
// invariance, so ShardedClusterConfig simply does not offer them — use
// a plain Cluster for those studies.
type ShardedCluster struct {
	cfg    ShardedClusterConfig
	shards []*Cluster
	driver *shard.Driver

	// Truth is the shared ground-truth membership registry; every
	// sub-cluster's Truth field aliases it.
	Truth *oracle.Registry

	rng      *xrand.Source // global setup stream (addresses, IDs, attachments)
	nextAddr wire.Addr
	home     map[wire.Addr]int
	attach   map[wire.Addr]topology.Attachment
	outbox   []des.Mailbox[wire.Message] // per source shard
	shiftLog int                         // log2(Shards): ID prefix → shard
}

// ShardedClusterConfig parameterises a sharded full-fidelity run.
type ShardedClusterConfig struct {
	// Core is the per-node protocol configuration.
	Core core.Config
	// Net provides latency; when nil, a flat ConstLatency is used.
	Net *topology.Network
	// ConstLatency is used when Net is nil (defaults to 50 ms).
	ConstLatency des.Time
	// Seed drives every random choice in the run.
	Seed uint64
	// Shards is the number of engines; a power of two in [1, 256].
	// 0 means 1.
	Shards int
	// Workers is the number of goroutines driving the shards; <= 0 means
	// GOMAXPROCS. Never affects results.
	Workers int
}

// NewShardedCluster builds an empty sharded cluster.
func NewShardedCluster(cfg ShardedClusterConfig) *ShardedCluster {
	if err := cfg.Core.Validate(); err != nil {
		panic(err)
	}
	if cfg.ConstLatency <= 0 {
		cfg.ConstLatency = 50 * des.Millisecond
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.Shards < 1 || cfg.Shards > 256 || bits.OnesCount(uint(cfg.Shards)) != 1 {
		panic(fmt.Sprintf("sim: Shards = %d (need a power of two in [1, 256])", cfg.Shards))
	}
	lookahead := cfg.ConstLatency
	if cfg.Net != nil {
		lookahead = cfg.Net.LatencyFloor()
	}
	if lookahead <= 0 {
		panic("sim: topology latency floor is zero; sharding needs a positive lookahead")
	}
	sc := &ShardedCluster{
		cfg:      cfg,
		Truth:    oracle.NewRegistry(),
		rng:      xrand.New(cfg.Seed),
		home:     make(map[wire.Addr]int),
		attach:   make(map[wire.Addr]topology.Attachment),
		outbox:   make([]des.Mailbox[wire.Message], cfg.Shards),
		shiftLog: bits.TrailingZeros(uint(cfg.Shards)),
	}
	engines := make([]shard.Shard, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		i := i
		sub := NewCluster(ClusterConfig{
			Core:         cfg.Core,
			Net:          cfg.Net,
			ConstLatency: cfg.ConstLatency,
			Seed:         cfg.Seed, // unused: all draws come from global or per-node streams
		})
		sub.Truth = sc.Truth
		sub.keyed = true
		sub.route = func(sn *SimNode, msg wire.Message, key uint64) bool {
			return sc.routeFrom(i, sn, msg, key)
		}
		sc.shards = append(sc.shards, sub)
		engines[i] = sub.Engine
	}
	sc.driver = shard.NewDriver(shard.Config{
		Lookahead: lookahead,
		Workers:   cfg.Workers,
		Exchange:  sc.exchange,
	}, engines...)
	return sc
}

// shardOf maps an identifier to its owning shard: the top log2(Shards)
// bits, i.e. the node's level-log2(Shards) eigenstring prefix.
func (sc *ShardedCluster) shardOf(id nodeid.ID) int {
	if sc.shiftLog == 0 {
		return 0
	}
	return int(id.Hi >> (64 - sc.shiftLog))
}

// AddNode creates a node on the shard its identifier belongs to. All
// global draws (attachment, RNG stream, identifier) come from the
// sharded cluster's own setup stream in call order, so setup is
// identical for every shard count.
func (sc *ShardedCluster) AddNode(threshold float64) *SimNode {
	sc.nextAddr++
	addr := sc.nextAddr
	var attach topology.Attachment
	if sc.cfg.Net != nil {
		attach = sc.cfg.Net.RandomAttachment(sc.rng)
	}
	rng := sc.rng.Split(uint64(addr))
	id := nodeid.ID{Hi: sc.rng.Uint64(), Lo: sc.rng.Uint64()}
	idx := sc.shardOf(id)
	sn := sc.shards[idx].addNodeAt(addr, attach, rng, id, threshold)
	sc.home[addr] = idx
	sc.attach[addr] = attach
	return sn
}

// routeFrom buffers a cross-shard send in the source shard's mailbox;
// the window barrier transfers it into the destination engine. Arrival
// time uses the same latency model as a local send, and the
// conservative window bound guarantees it is never in the destination's
// past.
func (sc *ShardedCluster) routeFrom(src int, sn *SimNode, msg wire.Message, key uint64) bool {
	dstIdx, ok := sc.home[msg.To]
	if !ok {
		return false
	}
	var lat des.Time
	if sc.cfg.Net != nil {
		lat = sc.cfg.Net.Latency(sn.Attach, sc.attach[msg.To])
	} else {
		lat = sc.cfg.ConstLatency
	}
	sc.outbox[src].Put(des.Envelope[wire.Message]{
		Dst:     dstIdx,
		At:      sc.shards[src].Engine.Now() + lat,
		Key:     key,
		Payload: msg,
	})
	return true
}

// exchange is the window barrier: it moves every buffered cross-shard
// message into its destination engine. Mailboxes drain in shard order
// and each engine orders the arrivals by (time, key), so the transfer
// is deterministic however the windows were executed.
func (sc *ShardedCluster) exchange(des.Time) {
	for i := range sc.outbox {
		sc.outbox[i].Drain(func(env des.Envelope[wire.Message]) {
			dc := sc.shards[env.Dst]
			// routeFrom accepted the message because its address has a
			// home shard, and nodes are never removed from byAddr.
			dc.deliverAt(env.At, env.Key, dc.byAddr[env.Payload.To], env.Payload)
		})
	}
}

// WarmStart populates the cluster with n nodes in their converged state,
// exactly as Cluster.WarmStart does — sampled from the global stream so
// the population is shard-count-invariant.
func (sc *ShardedCluster) WarmStart(n int, wl workload.Config, m float64) []*SimNode {
	return warmStart(sc.rng, sc.AddNode, sc.Truth, sc.cfg.Core, n, wl, m)
}

// Now returns the current virtual time.
func (sc *ShardedCluster) Now() des.Time { return sc.shards[0].Engine.Now() }

// Run advances virtual time by d across all shards, then refreshes the
// truth registry in shard order.
func (sc *ShardedCluster) Run(d des.Time) {
	sc.driver.Run(sc.Now() + d)
	for _, sub := range sc.shards {
		sub.SyncTruth()
	}
}

// Alive returns the alive nodes of every shard, in shard order.
func (sc *ShardedCluster) Alive() []*SimNode {
	var out []*SimNode
	for _, sub := range sc.shards {
		out = append(out, sub.Alive()...)
	}
	return out
}

// MessagesSent totals message counts across shards.
func (sc *ShardedCluster) MessagesSent() uint64 {
	var n uint64
	for _, sub := range sc.shards {
		n += sub.MessagesSent
	}
	return n
}

// EventsExecuted totals engine events fired across shards — a
// shard-count-invariant count.
func (sc *ShardedCluster) EventsExecuted() uint64 {
	var n uint64
	for _, sub := range sc.shards {
		n += sub.Engine.Executed()
	}
	return n
}

// StateDigest hashes every alive node's full protocol state
// (core.Node.AppendDigest) in address order into one value; the
// determinism tests compare it across shard and worker counts.
func (sc *ShardedCluster) StateDigest() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	nodes := sc.Alive()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Addr < nodes[j].Addr })
	h := uint64(offset64)
	var buf []byte
	for _, sn := range nodes {
		buf = sn.Node.AppendDigest(buf[:0])
		for _, b := range buf {
			h ^= uint64(b)
			h *= prime64
		}
	}
	return h
}
