package core

import (
	"fmt"
	"strings"
	"testing"

	"peerwindow/internal/nodeid"
	"peerwindow/internal/wire"
)

func TestPeerListInvariantsHoldThroughMutation(t *testing.T) {
	var pl PeerList
	for i, bits := range []string{"0001", "0100", "0110", "1011", "1110"} {
		p := ptrAt(bits, i%3, wire.Addr(i+2))
		if i%2 == 0 {
			p.Info = []byte{byte(i + 1)}
		}
		pl.Upsert(p, 0)
	}
	if err := pl.CheckInvariants(); err != nil {
		t.Fatalf("after upserts: %v", err)
	}
	pl.Remove(pl.At(1).ID)
	if err := pl.CheckInvariants(); err != nil {
		t.Fatalf("after remove: %v", err)
	}
	batch := []wire.Pointer{ptrAt("0010", 1, 7), ptrAt("0110", 0, 8), ptrAt("1111", 2, 9)}
	pl.MergeSorted(batch, 5, nil, nil)
	if err := pl.CheckInvariants(); err != nil {
		t.Fatalf("after merge: %v", err)
	}
	pl.DropOutsidePrefix(nodeid.EigenstringOf(pl.At(0).ID, 1))
	if err := pl.CheckInvariants(); err != nil {
		t.Fatalf("after drop: %v", err)
	}
}

func TestPeerListInvariantsCatchCorruption(t *testing.T) {
	build := func() *PeerList {
		pl := &PeerList{}
		for i, bits := range []string{"0001", "0100", "1011"} {
			p := ptrAt(bits, i, wire.Addr(i+2))
			if i == 2 {
				p.Info = []byte("cpu=4")
			}
			pl.Upsert(p, 0)
		}
		return pl
	}
	cases := map[string]struct {
		corrupt func(pl *PeerList)
		want    string
	}{
		"swapped entries": {
			func(pl *PeerList) { s := pl.slots(0); s[0], s[1] = s[1], s[0] },
			"unsorted",
		},
		"duplicate entry": {
			func(pl *PeerList) { s := pl.slots(0); s[1] = s[0] },
			"unsorted",
		},
		"histogram drift": {
			func(pl *PeerList) { pl.levels[0]++ },
			"histogram drift",
		},
		"flag without info": {
			func(pl *PeerList) { pl.slotAt(0).hasInfo = true },
			"info table has none",
		},
		"info without flag": {
			func(pl *PeerList) { pl.slotAt(2).hasInfo = false },
			"info table holds",
		},
		"empty info value": {
			func(pl *PeerList) { pl.info[pl.slotAt(2).id] = []byte{} },
			"info table has none",
		},
		"level out of range": {
			func(pl *PeerList) { pl.slotAt(0).level = 200 },
			"beyond nodeid.Bits",
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			pl := build()
			tc.corrupt(pl)
			err := pl.CheckInvariants()
			if err == nil {
				t.Fatal("corruption not detected")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestPeerListLeafInvariantsCatchCorruption corrupts the leaf layout of
// a list spanning several leaves, one clause at a time.
func TestPeerListLeafInvariantsCatchCorruption(t *testing.T) {
	build := func() *PeerList {
		pl := &PeerList{}
		for i := 0; i < 3*leafCap; i++ {
			pl.Upsert(wire.Pointer{Addr: wire.Addr(i + 1), ID: nodeid.ID{Hi: uint64(i+1) << 40}}, 0)
		}
		if len(pl.dir) < 3 {
			t.Fatalf("%d entries fill %d leaves, want 3 or more", pl.Len(), len(pl.dir))
		}
		return pl
	}
	cases := map[string]struct {
		corrupt func(pl *PeerList)
		want    string
	}{
		"empty leaf": {
			func(pl *PeerList) {
				pl.dir = append(pl.dir[:1], append([]leafRef{{s: new(leaf), end: pl.dir[0].end}}, pl.dir[1:]...)...)
			},
			"is empty",
		},
		"leaf over capacity": {
			func(pl *PeerList) { pl.dir[1].n = leafCap + 1 },
			"over its capacity",
		},
		"running count drift": {
			func(pl *PeerList) { pl.dir[1].end++ },
			"running count",
		},
		"stale last ID": {
			func(pl *PeerList) { pl.dir[0].last = pl.dir[0].s[0].id },
			"last ID",
		},
		"count hides an entry": {
			func(pl *PeerList) {
				for k := range pl.dir {
					pl.dir[k].end--
				}
				pl.dir[0].n--
				pl.dir[0].last = pl.dir[0].s[pl.dir[0].n-1].id
			},
			"not zero",
		},
		"IDs descend across leaves": {
			func(pl *PeerList) {
				a, b := &pl.dir[0].s[pl.dir[0].n-1], &pl.dir[1].s[0]
				*a, *b = *b, *a
				pl.dir[0].last = a.id
			},
			"do not ascend across leaves",
		},
	}
	if err := build().CheckInvariants(); err != nil {
		t.Fatalf("intact list: %v", err)
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			pl := build()
			tc.corrupt(pl)
			err := pl.CheckInvariants()
			if err == nil {
				t.Fatal("corruption not detected")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestNodeInvariantsHold(t *testing.T) {
	env := newFakeEnv(3)
	n := newTopNode(t, env, ptrAt("0100", 0, 2), ptrAt("1001", 0, 3))
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("fresh node: %v", err)
	}
}

func TestNodeInvariantsCatchCorruption(t *testing.T) {
	cases := map[string]struct {
		corrupt func(n *Node)
		want    string
	}{
		"eigenstring drift": {
			func(n *Node) { n.eigen = nodeid.EigenstringOf(n.self.ID.FlipBit(0), 1) },
			"eigenstring drift",
		},
		"self in peer list": {
			func(n *Node) { n.peers.Upsert(n.self, 0) },
			"own ID",
		},
		"peer outside eigenstring": {
			// Raising the level without shedding out-of-prefix peers
			// leaves "1001" outside the new "0" eigenstring.
			func(n *Node) { n.setLevel(1) },
			"outside eigenstring",
		},
		"top list over cap": {
			func(n *Node) {
				for i := 0; i <= n.cfg.TopListSize; i++ {
					n.topList = append(n.topList, ptrAt(fmt.Sprintf("%08b", i+1), 0, wire.Addr(i+10)))
				}
			},
			"top-node list has",
		},
		"duplicate top pointer": {
			func(n *Node) {
				p := ptrAt("1100", 0, 9)
				n.topList = []wire.Pointer{p, p}
			},
			"twice",
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			env := newFakeEnv(4)
			n := newTopNode(t, env, ptrAt("0100", 0, 2), ptrAt("1001", 0, 3))
			tc.corrupt(n)
			err := n.CheckInvariants()
			if err == nil {
				t.Fatal("corruption not detected")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
