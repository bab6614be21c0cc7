// Package invariant is the build-tag-gated front door to the protocol's
// deep invariant checks. The checks themselves (in
// internal/core/invariantcheck.go) are always compiled so unit tests can
// exercise them; this package decides whether they run. Under the
// default build, Check and CheckPool are no-ops the compiler erases.
// Under
//
//	go test -tags pwinvariants -race ./internal/sim -run TestCluster
//
// the simulation cluster calls Check on a node after every applied
// message and every fired timer, and CheckPool on its pool at the end of
// every Run; the live host calls Check after every message, timer run
// and API call.
//
// Check runs core.Node.CheckInvariants: the peer list keeps its layout
// (entries in strictly ascending ID order across chunks the content rule
// cuts, levels in range, an info table matching the entries' flags, one
// stamp per entry in well-formed leaves, every chunk interned in the
// list's pool); the eigenstring is EigenstringOf(self, level) and holds
// the node's own ID; every held pointer is another node inside it; the
// top-node list keeps its cap and holds no duplicate and not the node;
// no top or part-table row has a level or length above 128; a
// joined node with peers has a ring successor; each deadline queue keeps
// its deadlines in order and its timer armed while it holds live work;
// each pending send has one ack-queue entry, due by now + AckTimeout;
// and a stopped node holds no timer, deadline, pending send, dedup
// record, peer list, top list or part table. The simulation cluster also
// panics when a timer fires for a stopped node.
//
// CheckPool recounts a cluster's pool against every node it serves, dead
// ones included, whose storage Stop has given back.
// core.ChunkPool.CheckInvariants: each interned chunk is
// cut by the content rule, hashes to its bucket, is interned once and
// counts exactly the lists that hold it, and every chunk and every stamp
// leaf the pool made is held once or free once. core.ChunkPool.
// CheckStorage: every queue segment and pending-send record the pool
// made is held by one queue or pending ring once, or free once, and
// every free pending-ring array is empty and held by no node.
// See docs/STATIC_ANALYSIS.md.
package invariant
