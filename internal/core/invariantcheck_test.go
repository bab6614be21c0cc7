package core

import (
	"fmt"
	"strings"
	"testing"

	"peerwindow/internal/des"
	"peerwindow/internal/nodeid"
	"peerwindow/internal/wire"
	"peerwindow/internal/xrand"
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

// entryAt returns the stored shared part of the i-th entry, for
// corrupting it in place.
func entryAt(pl *PeerList, i int) *entry {
	k := pl.chunkOf(i)
	return &pl.dir[k].c.e[i-pl.start(k)]
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
			func(pl *PeerList) { a, b := entryAt(pl, 0), entryAt(pl, 1); *a, *b = *b, *a },
			"unsorted",
		},
		"duplicate entry": {
			func(pl *PeerList) { *entryAt(pl, 1) = *entryAt(pl, 0) },
			"unsorted",
		},
		"flag without info": {
			func(pl *PeerList) { entryAt(pl, 0).hasInfo = true },
			"info table has none",
		},
		"info without flag": {
			func(pl *PeerList) { entryAt(pl, 2).hasInfo = false },
			"info table holds",
		},
		"empty info value": {
			func(pl *PeerList) { pl.info[entryAt(pl, 2).id] = []byte{} },
			"info table has none",
		},
		"level out of range": {
			func(pl *PeerList) { entryAt(pl, 0).level = 200 },
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

// TestPeerListLeafInvariantsCatchCorruption corrupts the layout of a
// list spanning several chunks and several stamp leaves, one clause at a
// time.
func TestPeerListLeafInvariantsCatchCorruption(t *testing.T) {
	build := func() *PeerList {
		pl := &PeerList{}
		for i := 0; i < 3*leafCap; i++ {
			pl.Upsert(wire.Pointer{Addr: wire.Addr(i + 1), ID: nodeid.ID{Hi: uint64(i+1) << 40}}, des.Time(i))
		}
		if len(pl.stamps.dir) < 3 || len(pl.dir) < 3 || pl.dir[0].n < 2 {
			t.Fatalf("%d entries fill %d leaves and %d chunks, the first of %d, want 3, 3 and 2 or more",
				pl.Len(), len(pl.stamps.dir), len(pl.dir), pl.dir[0].n)
		}
		return pl
	}
	// interned makes a chunk of es held in the list's pool.
	interned := func(pl *PeerList, es []entry) chunkRef {
		return chunkRef{c: pl.pool.intern(es, hashEntries(es)), n: int32(len(es)), last: es[len(es)-1].id}
	}
	cases := map[string]struct {
		corrupt func(pl *PeerList)
		want    string
	}{
		"empty leaf": {
			func(pl *PeerList) {
				q := &pl.stamps
				q.dir = append(q.dir[:1], append([]leafRef{{leaf: new(leaf), end: q.dir[0].end}}, q.dir[1:]...)...)
			},
			"is empty",
		},
		"leaf over capacity": {
			func(pl *PeerList) { pl.stamps.dir[1].n = leafCap + 1 },
			"over its capacity",
		},
		"running count drift": {
			func(pl *PeerList) { pl.stamps.dir[1].end++ },
			"running count",
		},
		"count hides an entry": {
			func(pl *PeerList) {
				q := &pl.stamps
				for k := range q.dir {
					q.dir[k].end--
				}
				q.dir[0].n--
			},
			"not zero",
		},
		"stamp missing": {
			func(pl *PeerList) { pl.stamps.remove(&pl.pool.leaves, pl.Len()-1) },
			"stamps for",
		},
		"stale last ID": {
			func(pl *PeerList) { pl.dir[0].last = pl.dir[0].c.e[0].id },
			"last ID",
		},
		"chunk count drift": {
			func(pl *PeerList) { pl.dir[0].n-- },
			"count",
		},
		"chunk running count drift": {
			func(pl *PeerList) { pl.dir[1].end++ },
			"running count",
		},
		"empty chunk": {
			func(pl *PeerList) {
				pl.dir = append(pl.dir[:1], append([]chunkRef{{c: new(chunk), end: pl.dir[0].end}}, pl.dir[1:]...)...)
			},
			"holds 0 entries",
		},
		"chunk over capacity": {
			func(pl *PeerList) { pl.dir[1].c.n = chunkCap + 1 },
			"holds 64 entries",
		},
		"IDs descend across leaves": {
			func(pl *PeerList) { pl.dir[1].c.e[0].id = pl.dir[0].c.e[0].id },
			"unsorted at chunk 1",
		},
		"natural end inside a chunk": {
			func(pl *PeerList) {
				r := interned(pl, append(append([]entry(nil), pl.entries(0)...), pl.entries(1)...))
				r.end = pl.dir[1].end
				pl.dir = append([]chunkRef{r}, pl.dir[2:]...)
			},
			"natural end inside",
		},
		"open chunk before the list ends": {
			func(pl *PeerList) {
				es := pl.entries(0)
				head, tail := interned(pl, es[:1]), interned(pl, es[1:])
				head.end, tail.end = 1, pl.dir[0].end
				pl.dir = append([]chunkRef{head, tail}, pl.dir[1:]...)
			},
			"open chunk",
		},
		"chunk held twice": {
			func(pl *PeerList) { pl.dir[0].c.refs++ },
			"counts 2 holders, the lists hold it 1 times",
		},
	}
	// check runs the list's check, then its own pool's, which alone sees
	// a count that no hold explains.
	check := func(pl *PeerList) error {
		if err := pl.CheckInvariants(); err != nil {
			return err
		}
		return pl.pool.CheckInvariants([]*PeerList{pl})
	}
	if err := check(build()); err != nil {
		t.Fatalf("intact list: %v", err)
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			pl := build()
			tc.corrupt(pl)
			err := check(pl)
			if err == nil {
				t.Fatal("corruption not detected")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestChunkPoolInvariantsCatchCorruption corrupts a shared pool serving
// two lists with the same content, and the chunks and stamp leaves it
// recycles, one clause at a time: each corruption must fail the pool's
// check, and the list check where the list can see it.
func TestChunkPoolInvariantsCatchCorruption(t *testing.T) {
	build := func() (*ChunkPool, []*PeerList) {
		pool := &ChunkPool{}
		lists := []*PeerList{{pool: pool}, {pool: pool}}
		for i := 0; i < 3*chunkCap; i++ {
			p := wire.Pointer{Addr: wire.Addr(i + 1), ID: nodeid.ID{Hi: uint64(i+1) << 40}}
			for _, pl := range lists {
				pl.Upsert(p, des.Time(i))
			}
		}
		lists[0].Remove(lists[0].At(5).ID)
		lists[1].Remove(lists[1].At(5).ID)
		if pool.interned == pool.chunks.Made() || lists[0].dir[0].c != lists[1].dir[0].c || lists[0].dir[0].c.refs != 2 {
			t.Fatal("two equal lists do not share their first chunk, or the pool frees nothing")
		}
		return pool, lists
	}
	cases := map[string]struct {
		corrupt  func(p *ChunkPool, lists []*PeerList)
		want     string
		listWant string // "" when a list alone cannot see the corruption
	}{
		"shared chunk written in place": {
			func(_ *ChunkPool, lists []*PeerList) { lists[0].dir[0].c.e[0].addr++ },
			"hashes to",
			"hashes to",
		},
		"release without a decrement": {
			func(_ *ChunkPool, lists []*PeerList) { lists[0].dir[0].c.refs++ },
			"counts 3 holders, the lists hold it 2 times",
			"",
		},
		"zero count": {
			func(_ *ChunkPool, lists []*PeerList) { lists[0].dir[0].c.refs = 0 },
			"counts 0 holders",
			"count of 0",
		},
		"held chunk not interned": {
			func(_ *ChunkPool, lists []*PeerList) {
				r := &lists[0].dir[0]
				c := *r.c
				c.next, c.refs = nil, 1
				r.c.refs--
				r.c = &c
			},
			"not interned",
			"not interned",
		},
		"freed chunk still counted": {
			func(p *ChunkPool, _ []*PeerList) { c := p.chunks.Get(); c.refs = 1; p.chunks.Put(c) },
			"a free chunk counts 1",
			"",
		},
		"chunk leaked off the free list": {
			func(p *ChunkPool, _ []*PeerList) { p.chunks.Get() },
			"chunks allocated",
			"",
		},
		"leaf put twice": {
			func(p *ChunkPool, _ []*PeerList) { l := p.leaves.Get(); p.leaves.Put(l); p.leaves.Put(l) },
			"the free list holds a leaf record twice",
			"",
		},
		"leaf held by two lists": {
			func(_ *ChunkPool, lists []*PeerList) { lists[1].stamps.dir[0].leaf = lists[0].stamps.dir[0].leaf },
			"a leaf record is held twice",
			"",
		},
	}
	if p, lists := build(); p.CheckInvariants(lists) != nil || lists[0].CheckInvariants() != nil {
		t.Fatalf("intact pool: %v; list: %v", p.CheckInvariants(lists), lists[0].CheckInvariants())
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			p, lists := build()
			tc.corrupt(p, lists)
			if err := p.CheckInvariants(lists); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("pool check: %v, want an error mentioning %q", err, tc.want)
			}
			if tc.listWant == "" {
				return
			}
			if err := lists[0].CheckInvariants(); err == nil || !strings.Contains(err.Error(), tc.listWant) {
				t.Fatalf("list check: %v, want an error mentioning %q", err, tc.listWant)
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
		"dedup count drift": {
			func(n *Node) {
				n.dedup.put(ptrAt("1100", 0, 9).ID, dedupRec{seq: 3})
				n.dedup.n++
			},
			"dedup table counts 2 records",
		},
		"dedup sequenced drift": {
			func(n *Node) {
				n.dedup.put(ptrAt("1100", 0, 9).ID, dedupRec{dead: true})
				n.dedup.sequenced++
			},
			"1 sequenced",
		},
		"dedup record past an empty slot": {
			func(n *Node) {
				id := ptrAt("1100", 0, 9).ID
				n.dedup.put(id, dedupRec{seq: 3})
				i, _ := n.dedup.index(id)
				n.dedup.slots[(i+1)%len(n.dedup.slots)] = n.dedup.slots[i]
				n.dedup.slots[i] = dedupSlot{}
			},
			"past the empty slot",
		},
		"dedup ID held twice": {
			func(n *Node) {
				id := ptrAt("1100", 0, 9).ID
				n.dedup.put(id, dedupRec{seq: 3})
				i, _ := n.dedup.index(id)
				n.dedup.slots[(i+1)%len(n.dedup.slots)] = n.dedup.slots[i]
				n.dedup.n++
				n.dedup.sequenced++
			},
			"dedup table holds",
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

// pooledEnv is a countingEnv whose node draws its storage from a pool
// shared with other nodes, as a simulator cluster's nodes do.
type pooledEnv struct {
	*countingEnv
	pool *ChunkPool
}

func (e pooledEnv) ChunkPool() *ChunkPool { return e.pool }

// The storage clause of the pool check catches each way of losing track
// of a queue segment, a pending-send record or a pending-ring slot array.
func TestStorageInvariantsCatchCorruption(t *testing.T) {
	// build returns two nodes sharing a pool, each with pending sends in
	// its ring and entries in its ack and hop queues across several
	// segments, the second one stopped.
	build := func() (*ChunkPool, []*Node) {
		pool := new(ChunkPool)
		var nodes []*Node
		for i, bits := range []string{"0000", "1000"} {
			env := &countingEnv{rng: xrand.New(uint64(i + 1))}
			n := NewNode(quietConfig(), pooledEnv{env, pool}, Observer{}, ptrAt(bits, 0, wire.Addr(i+1)))
			for range 2*segLen + 3 {
				n.sendReliable(wire.Message{Type: wire.MsgTopListReq, To: 9}, 2, nil, nil)
				n.hops.push(n.cfg.ForwardDelay, forwardHop{})
			}
			nodes = append(nodes, n)
		}
		nodes[1].Stop()
		return pool, nodes
	}
	cases := map[string]struct {
		corrupt func(p *ChunkPool, nodes []*Node)
		want    string
	}{
		"segment released twice": {
			func(p *ChunkPool, nodes []*Node) {
				s := nodes[0].hops.head
				nodes[0].hops.stop()
				p.hopSegs.Put(s)
			},
			"free list holds a segment twice",
		},
		"held segment released": {
			func(p *ChunkPool, nodes []*Node) { p.ackSegs.Put(nodes[0].acks.tail) },
			"broken segment chain",
		},
		"segment lost": {
			func(p *ChunkPool, nodes []*Node) { p.hopSegs.Get() },
			"segments allocated",
		},
		"pending send released while pending": {
			func(p *ChunkPool, nodes []*Node) { p.sends.Put(nodes[0].pending.get(nodes[0].nextAckID)) },
			"pending send in use is on the free list",
		},
		"pending send lost": {
			func(p *ChunkPool, nodes []*Node) { p.sends.Get() },
			"pending sends allocated",
		},
		"held pending ring released": {
			func(p *ChunkPool, nodes []*Node) { p.putRing(nodes[0].pending.slots) },
			"free pending ring of 32 slots is held by a node",
		},
		"free pending ring written": {
			func(p *ChunkPool, nodes []*Node) { p.rings[0][0][3] = new(pendingSend) },
			"free pending ring of 16 slots holds a send",
		},
		"node of another pool": {
			func(p *ChunkPool, nodes []*Node) { nodes[1].peers.pool = new(ChunkPool) },
			"served by another pool",
		},
	}
	if p, nodes := build(); p.CheckStorage(nodes) != nil {
		t.Fatalf("intact pool: %v", p.CheckStorage(nodes))
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			p, nodes := build()
			tc.corrupt(p, nodes)
			err := p.CheckStorage(nodes)
			if err == nil {
				t.Fatal("corruption not detected")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
