//go:build !pwinvariants

package invariant

import "peerwindow/internal/core"

// Enabled reports whether deep invariant checking is compiled in.
const Enabled = false

// Check is a no-op under the default build; the compiler erases the
// calls the simulation harness makes.
func Check(n *core.Node) {}

// CheckPool is a no-op under the default build.
func CheckPool(pool *core.ChunkPool, nodes []*core.Node) {}

// Checks returns 0 under the default build.
func Checks() uint64 { return 0 }

// PoolChecks returns 0 under the default build.
func PoolChecks() uint64 { return 0 }
