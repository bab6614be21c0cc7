package core

import (
	"testing"

	"peerwindow/internal/nodeid"
	"peerwindow/internal/wire"
	"peerwindow/internal/xrand"
)

// TestTreeMulticastCoversArbitraryConfigurations replays the figure-4
// algorithm abstractly — no timers, no messages, just the target
// selection rule — over many random populations with random levels, and
// asserts property 3: starting from any top node of the subject's part,
// every audience member is informed, each exactly once (r = 1).
//
// The abstraction mirrors the protocol exactly: each informed node, with
// a peer list containing every member matching its own eigenstring, runs
// forwardEvent's target rule (prefixRange, then splitStep and
// strongestIn) for steps s = level(self)…127 and "sends" to the chosen
// targets; targets recurse from their own level upward.
func TestTreeMulticastCoversArbitraryConfigurations(t *testing.T) {
	rng := xrand.New(777)
	for trial := 0; trial < 60; trial++ {
		n := 8 + rng.Intn(120)
		maxLevel := 1 + rng.Intn(4)
		members := make([]wire.Pointer, n)
		for i := range members {
			members[i] = wire.Pointer{
				Addr:  wire.Addr(i + 1),
				ID:    nodeid.ID{Hi: rng.Uint64(), Lo: rng.Uint64()},
				Level: uint8(rng.Intn(maxLevel + 1)),
			}
		}
		// Build each member's peer list per the protocol definition.
		lists := make([]PeerList, n)
		for i := range members {
			eig := nodeid.EigenstringOf(members[i].ID, int(members[i].Level))
			for j := range members {
				if i != j && eig.Contains(members[j].ID) {
					lists[i].Upsert(members[j], 0)
				}
			}
		}
		// Pick a subject and compute its audience.
		subject := members[rng.Intn(n)]
		inAudience := func(p wire.Pointer) bool {
			return p.ID.Prefix(int(p.Level)) == subject.ID.Prefix(int(p.Level))
		}
		audience := map[nodeid.ID]bool{}
		for _, m := range members {
			if inAudience(m) {
				audience[m.ID] = true
			}
		}
		// Root: the strongest audience member whose eigenstring is a
		// prefix of the subject (a top node of the subject's part).
		rootIdx := -1
		for i, m := range members {
			if !inAudience(m) {
				continue
			}
			if rootIdx < 0 || m.Level < members[rootIdx].Level {
				rootIdx = i
			}
		}
		if rootIdx < 0 {
			continue // degenerate: no audience at all
		}

		// Abstract dissemination.
		received := map[nodeid.ID]int{}
		idxOf := map[nodeid.ID]int{}
		for i, m := range members {
			idxOf[m.ID] = i
		}
		// disseminate mirrors forwardEvent: the root starts at its own
		// level; a recipient informed by a step-s message continues from
		// step s+1.
		var disseminate func(i, fromStep int)
		disseminate = func(i, fromStep int) {
			self, pl := members[i], &lists[i]
			lo, hi := pl.prefixRange(nodeid.EigenstringOf(self.ID, fromStep))
			for s := fromStep; s < nodeid.Bits && lo < hi; s++ {
				var candLo, candHi int
				candLo, candHi, lo, hi = pl.splitStep(self.ID, s, lo, hi)
				target, ok := pl.strongestIn(candLo, candHi, subject.ID, nil, rng)
				if !ok {
					continue
				}
				received[target.ID]++
				if received[target.ID] == 1 {
					disseminate(idxOf[target.ID], s+1)
				}
			}
		}
		received[members[rootIdx].ID] = 1 // the root applies directly
		disseminate(rootIdx, int(members[rootIdx].Level))

		for id := range audience {
			got := received[id]
			if got == 0 {
				t.Fatalf("trial %d (n=%d): audience member %v never informed", trial, n, id)
			}
			if got > 1 {
				t.Fatalf("trial %d (n=%d): member %v informed %d times (r must be 1)",
					trial, n, id, got)
			}
		}
		for id, c := range received {
			if c > 0 && !audience[id] {
				t.Fatalf("trial %d: non-audience member %v was informed", trial, id)
			}
		}
	}
}
