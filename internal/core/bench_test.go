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

// Peer-list microbenchmarks. A node downloads peer-list slices — hundreds
// to thousands of pointers, already in ID order — and applies them to
// its own list with MergeSorted: into an empty list at join step 3
// (§4.3) and on Restore, into a full one where almost nothing is new on
// reconcile, and into a warm one on level raising.
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
	cp := &PeerList{info: maps.Clone(pl.info)}
	p := cp.writer()
	pl.walk(0, pl.Len(), func(e *entry, _ *stamp) { p.e = append(p.e, *e) })
	cp.recut(0, 0)
	for _, r := range pl.stamps.dir {
		l := p.leaves.Get()
		l.s = r.leaf.s
		r.leaf = l
		cp.stamps.dir = append(cp.stamps.dir, r)
	}
	return cp
}

// BenchmarkPeerListMerge applies a sorted batch in the three shapes a
// peer-list download takes, reporting ns per pointer:
//
//   - empty: 10,000 pointers into an empty list (join step 3, Restore);
//   - update: 1,024 held pointers with a bumped level into a 10,000-entry
//     list (reconcile);
//   - half-new: 1,024 pointers, half updates to held entries and half new
//     IDs interleaved across the whole range, into the same list (level
//     raising into an already warm list).
func BenchmarkPeerListMerge(b *testing.B) {
	const n, m = 10000, 1024
	rng := xrand.New(7)
	all := benchSortedPointers(n+m/2, 4, rng)
	base := make([]wire.Pointer, 0, n)
	halfNew := make([]wire.Pointer, 0, m)
	// Every (n+m/2)/(m/2)-th ID is batch-only; the other half of the
	// half-new batch updates IDs also present in the base list (with a
	// bumped level).
	stride := (n + m/2) / (m / 2)
	for i, p := range all {
		if i%stride == 0 && len(halfNew) < m/2 {
			halfNew = append(halfNew, p)
			continue
		}
		base = append(base, p)
	}
	bumped := func(k, of int) []wire.Pointer {
		out := make([]wire.Pointer, 0, k)
		for i := 0; i < k; i++ {
			p := base[i*(len(base)/of)]
			p.Level = (p.Level + 1) % 5
			out = append(out, p)
		}
		return out
	}
	halfNew = append(halfNew, bumped(m/2, m/2)...)
	sort.Slice(halfNew, func(i, j int) bool { return halfNew[i].ID.Less(halfNew[j].ID) })
	update := bumped(m, m)

	var src PeerList
	src.MergeSorted(base, 0, nil, nil)
	run := func(b *testing.B, batch []wire.Pointer, from *PeerList) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			pl := from.clone()
			b.StartTimer()
			pl.MergeSorted(batch, des.Time(i+1), nil, nil)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "ns/ptr")
	}
	b.Run("empty", func(b *testing.B) { run(b, base, &PeerList{}) })
	b.Run("update", func(b *testing.B) { run(b, update, &src) })
	b.Run("half-new", func(b *testing.B) { run(b, halfNew, &src) })
}

// BenchmarkPeerListStrongest measures the report-path query (§4.4/§4.5):
// reports, escalations and level raises ask for the strongest held
// pointer, and Strongest scans from the first entry to the first one at
// the minimum level. This is its worst case, a scan of the whole list.
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
