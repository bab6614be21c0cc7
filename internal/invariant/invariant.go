//go:build pwinvariants

package invariant

import (
	"fmt"
	"sync/atomic"

	"peerwindow/internal/core"
)

// Enabled reports whether deep invariant checking is compiled in.
const Enabled = true

// checks counts Check calls and poolChecks CheckPool calls; atomic
// because shard.RunParallel may drive several independent engines at
// once.
var checks, poolChecks atomic.Uint64

// Check panics when n violates a protocol invariant. It is called from
// the simulation harness after every applied event, so the panic's stack
// points at the mutation that broke the state.
func Check(n *core.Node) {
	checks.Add(1)
	if err := n.CheckInvariants(); err != nil {
		panic(fmt.Sprintf("pwinvariants: node %v level %d: %v",
			n.Self().ID, n.Level(), err))
	}
}

// Checks returns how many invariant checks have run in this process —
// tests assert it is non-zero to prove the hooks actually fired.
func Checks() uint64 { return checks.Load() }

// CheckPool panics when pool violates a chunk-pool or storage invariant
// (core.ChunkPool.CheckInvariants, CheckStorage); nodes must be every
// node the pool serves, stopped ones included, whose storage must be
// free. The simulation harness
// calls it at the end of each run interval, as a full recount costs one
// pass over every node.
func CheckPool(pool *core.ChunkPool, nodes []*core.Node) {
	poolChecks.Add(1)
	lists := make([]*core.PeerList, len(nodes))
	for i, n := range nodes {
		lists[i] = n.Peers()
	}
	if err := pool.CheckInvariants(lists); err != nil {
		panic(fmt.Sprintf("pwinvariants: chunk pool: %v", err))
	}
	if err := pool.CheckStorage(nodes); err != nil {
		panic(fmt.Sprintf("pwinvariants: pool storage: %v", err))
	}
}

// PoolChecks returns how many chunk-pool checks have run in this process.
func PoolChecks() uint64 { return poolChecks.Load() }
