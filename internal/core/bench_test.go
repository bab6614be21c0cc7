package core

import (
	"fmt"
	"maps"
	"sort"
	"testing"

	"peerwindow/internal/des"
	"peerwindow/internal/nodeid"
	"peerwindow/internal/wire"
	"peerwindow/internal/xrand"
)

// Peer-list microbenchmarks for the PR 1 hot-path overhaul. The workload
// mirrors join step 3 (§4.3): a node downloads the peer-list slice for
// its eigenstring — hundreds to thousands of pointers, already in ID
// order — and applies it to its own list. The seed path is one Upsert
// per pointer, each an O(N) slice copy, so applying a list is O(N·M);
// the bulk-merge path does one O(N+M) pass.
//
// Run with:
//
//	go test -bench PeerListMerge -benchmem ./internal/core

// benchSortedPointers returns n pointers with distinct IDs in ascending
// ID order, levels spread over [0, maxLevel].
func benchSortedPointers(n, maxLevel int, rng *xrand.Source) []wire.Pointer {
	seen := make(map[nodeid.ID]bool, n)
	out := make([]wire.Pointer, 0, n)
	for len(out) < n {
		id := nodeid.ID{Hi: rng.Uint64(), Lo: rng.Uint64()}
		if seen[id] {
			continue
		}
		seen[id] = true
		out = append(out, wire.Pointer{
			Addr:  wire.Addr(len(out) + 1),
			ID:    id,
			Level: uint8(rng.Intn(maxLevel + 1)),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID.Less(out[j].ID) })
	return out
}

// clone deep-copies the list so each benchmark iteration starts from
// the same warm state.
func (pl *PeerList) clone() *PeerList {
	cp := *pl
	cp.dir = append([]leafRef(nil), pl.dir...)
	for k := range cp.dir {
		s := *cp.dir[k].s
		cp.dir[k].s = &s
	}
	cp.spare = nil
	cp.info = maps.Clone(pl.info)
	return &cp
}

// applySortedBatch routes a sorted pointer batch into the list through
// the bulk-merge hot path under benchmark.
func applySortedBatch(pl *PeerList, ps []wire.Pointer, now des.Time) {
	pl.MergeSorted(ps, now, nil, nil)
}

// BenchmarkPeerListMerge applies a 1024-pointer sorted batch — half
// updates to held entries, half new IDs interleaved across the whole
// range — into a 10,000-entry list, the shape of a level-raising
// download into an already warm list.
func BenchmarkPeerListMerge(b *testing.B) {
	const n, m = 10000, 1024
	rng := xrand.New(7)
	all := benchSortedPointers(n+m/2, 4, rng)
	base := make([]wire.Pointer, 0, n)
	batch := make([]wire.Pointer, 0, m)
	// Every (n+m/2)/(m/2)-th ID is batch-only; half the batch updates
	// IDs also present in the base list (with a bumped level).
	stride := (n + m/2) / (m / 2)
	for i, p := range all {
		if i%stride == 0 && len(batch) < m/2 {
			batch = append(batch, p)
			continue
		}
		base = append(base, p)
	}
	for i := 0; i < m/2; i++ {
		p := base[i*(len(base)/(m/2))]
		p.Level = (p.Level + 1) % 5
		batch = append(batch, p)
	}
	sort.Slice(batch, func(i, j int) bool { return batch[i].ID.Less(batch[j].ID) })

	var src PeerList
	for _, p := range base {
		src.Upsert(p, 0) // ascending IDs: each Upsert appends, O(1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pl := src.clone()
		b.StartTimer()
		applySortedBatch(pl, batch, des.Time(i+1))
	}
}

// BenchmarkPeerListStrongest measures the report-path query (§4.4/§4.5):
// every report and escalation asks for the strongest held pointer. The
// seed scans the whole list; the level index answers from the first
// occupied level bucket.
func BenchmarkPeerListStrongest(b *testing.B) {
	rng := xrand.New(11)
	ps := benchSortedPointers(10000, 6, rng)
	for i := range ps {
		// A weak crowd with one rare strong pointer late in ID order —
		// the shape that defeats the early-exit of a naive scan.
		ps[i].Level = uint8(3 + rng.Intn(4))
	}
	ps[len(ps)-1].Level = 1
	var pl PeerList
	for _, p := range ps {
		pl.Upsert(p, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := pl.Strongest(); !ok {
			b.Fatal("no strongest in a populated list")
		}
	}
}

// BenchmarkPeerListChurn is one churn event as a held peer list sees
// it: a held ID leaves and a fresh one joins, each at a random place in
// ID order. A mutation moves one leaf, not half the list, so the cost
// should stay nearly flat across the sizes.
func BenchmarkPeerListChurn(b *testing.B) {
	for _, n := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := xrand.New(5)
			held := benchSortedPointers(n, 4, rng)
			var pl PeerList
			pl.MergeSorted(held, 0, nil, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := rng.Intn(len(held))
				if _, ok := pl.Remove(held[k].ID); !ok {
					b.Fatal("held ID missing")
				}
				held[k].ID = nodeid.ID{Hi: rng.Uint64(), Lo: rng.Uint64()}
				pl.Upsert(held[k], des.Time(i))
			}
		})
	}
}
