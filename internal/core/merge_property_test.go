package core

import (
	"sort"
	"testing"

	"peerwindow/internal/des"
	"peerwindow/internal/nodeid"
	"peerwindow/internal/wire"
	"peerwindow/internal/xrand"
)

// Property tests for the bulk-merge path: MergeSorted must be
// observationally identical to applying the same batch through repeated
// Upsert — entries, order, levels histogram, firstSeen/lastSeen — on
// random batches including empty, disjoint, fully-overlapping, and
// duplicate-carrying ones. TestPeerListInfoMatchesModel follows pointer
// info through every mutator against a plain map model.

// randomPointer draws a pointer from a small ID universe so batches
// overlap held entries frequently.
func randomPointer(rng *xrand.Source, universe []nodeid.ID) wire.Pointer {
	id := universe[rng.Intn(len(universe))]
	return wire.Pointer{
		Addr:  wire.Addr(1 + id.Lo%1000),
		ID:    id,
		Level: uint8(rng.Intn(7)),
	}
}

// assertEqualLists fails unless the two lists agree on every observable:
// entry sequence, pointer payloads, timestamps, histogram, and the
// Strongest/MinLevel answers.
func assertEqualLists(t *testing.T, got, want *PeerList, round int) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("round %d: Len %d != %d", round, got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if g, w := got.At(i), want.At(i); !g.Equal(w) {
			t.Fatalf("round %d entry %d: ptr %+v != %+v", round, i, g, w)
		}
	}
	type stamps struct{ first, last des.Time }
	var gotSeen []stamps
	got.ForEach(func(_ wire.Pointer, first, last des.Time) { gotSeen = append(gotSeen, stamps{first, last}) })
	i := 0
	want.ForEach(func(w wire.Pointer, first, last des.Time) {
		if g := gotSeen[i]; g.first != first || g.last != last {
			t.Fatalf("round %d entry %d (%v): seen (%v,%v) != (%v,%v)",
				round, i, w.ID, g.first, g.last, first, last)
		}
		i++
	})
	if got.levels != want.levels {
		t.Fatalf("round %d: levels histogram diverged\n got %v\nwant %v",
			round, got.levels, want.levels)
	}
	gs, gok := got.Strongest()
	ws, wok := want.Strongest()
	if gok != wok || (gok && !gs.Equal(ws)) {
		t.Fatalf("round %d: Strongest (%+v,%v) != (%+v,%v)", round, gs, gok, ws, wok)
	}
	if got.MinLevel() != want.MinLevel() {
		t.Fatalf("round %d: MinLevel %d != %d", round, got.MinLevel(), want.MinLevel())
	}
}

func TestMergeSortedEquivalentToUpsert(t *testing.T) {
	rng := xrand.New(99)
	for round := 0; round < 300; round++ {
		universe := make([]nodeid.ID, 40+rng.Intn(160))
		for i := range universe {
			universe[i] = nodeid.ID{Hi: rng.Uint64(), Lo: rng.Uint64()}
		}
		var merged, upserted PeerList
		baseN := rng.Intn(100)
		for i := 0; i < baseN; i++ {
			p := randomPointer(rng, universe)
			at := des.Time(1 + rng.Intn(50))
			merged.Upsert(p, at)
			upserted.Upsert(p, at)
		}
		// Batch sizes 0, 1 and larger all occur; ~1 in 8 batches carries
		// a duplicate ID to exercise the fallback.
		batch := make([]wire.Pointer, rng.Intn(60))
		for i := range batch {
			batch[i] = randomPointer(rng, universe)
		}
		sort.SliceStable(batch, func(i, j int) bool { return batch[i].ID.Less(batch[j].ID) })
		now := des.Time(100 + round)

		addedUpsert := 0
		for _, p := range batch {
			if upserted.Upsert(p, now) {
				addedUpsert++
			}
		}
		var notified []wire.Pointer
		addedMerge := merged.MergeSorted(batch, now, func(p wire.Pointer) {
			notified = append(notified, p)
		}, nil)

		if addedMerge != addedUpsert {
			t.Fatalf("round %d: MergeSorted added %d, Upsert added %d",
				round, addedMerge, addedUpsert)
		}
		if len(notified) != addedMerge {
			t.Fatalf("round %d: onNew fired %d times for %d additions",
				round, len(notified), addedMerge)
		}
		assertEqualLists(t, &merged, &upserted, round)
	}
}

func TestMergeSortedEmptyAndDisjointBatches(t *testing.T) {
	rng := xrand.New(5)
	base := benchSortedPointers(50, 4, rng)
	var pl PeerList
	for _, p := range base {
		pl.Upsert(p, 1)
	}
	if got := pl.MergeSorted(nil, 2, nil, nil); got != 0 {
		t.Fatalf("empty batch added %d", got)
	}
	if pl.Len() != 50 {
		t.Fatalf("empty batch changed Len to %d", pl.Len())
	}
	// A fully-overlapping batch must add nothing and refresh lastSeen
	// while preserving firstSeen.
	if got := pl.MergeSorted(base, 9, nil, nil); got != 0 {
		t.Fatalf("overlapping batch added %d", got)
	}
	pl.ForEach(func(p wire.Pointer, firstSeen, lastSeen des.Time) {
		if firstSeen != 1 || lastSeen != 9 {
			t.Fatalf("overlap merge: seen (%v,%v) want (1,9)", firstSeen, lastSeen)
		}
	})
	// A disjoint batch must add all of its members.
	fresh := benchSortedPointers(30, 4, rng)
	disjoint := fresh[:0]
	for _, p := range fresh {
		if _, held := pl.Lookup(p.ID); !held {
			disjoint = append(disjoint, p)
		}
	}
	if got := pl.MergeSorted(disjoint, 12, nil, nil); got != len(disjoint) {
		t.Fatalf("disjoint batch added %d want %d", got, len(disjoint))
	}
	if pl.Len() != 50+len(disjoint) {
		t.Fatalf("Len = %d want %d", pl.Len(), 50+len(disjoint))
	}
}

// naiveStrongest is the seed implementation: full scan for the first
// entry at the minimum level.
func naiveStrongest(pl *PeerList) (wire.Pointer, bool) {
	min := -1
	for l := range pl.levels {
		if pl.levels[l] > 0 {
			min = l
			break
		}
	}
	if min < 0 {
		return wire.Pointer{}, false
	}
	for i := 0; i < pl.Len(); i++ {
		if p := pl.At(i); int(p.Level) == min {
			return p, true
		}
	}
	return wire.Pointer{}, false
}

func TestStrongestAgreesWithNaiveScan(t *testing.T) {
	rng := xrand.New(17)
	universe := make([]nodeid.ID, 120)
	for i := range universe {
		universe[i] = nodeid.ID{Hi: rng.Uint64(), Lo: rng.Uint64()}
	}
	var pl PeerList
	check := func(op string, step int) {
		t.Helper()
		got, gok := pl.Strongest()
		want, wok := naiveStrongest(&pl)
		if gok != wok || (gok && !got.Equal(want)) {
			t.Fatalf("step %d after %s: Strongest (%+v,%v) != naive (%+v,%v)",
				step, op, got, gok, want, wok)
		}
	}
	check("init", -1)
	for step := 0; step < 4000; step++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // upsert (insert or relevel)
			pl.Upsert(randomPointer(rng, universe), des.Time(step))
			check("upsert", step)
		case 5, 6, 7: // remove
			if pl.Len() > 0 {
				pl.Remove(pl.At(rng.Intn(pl.Len())).ID)
				check("remove", step)
			}
		case 8: // bulk merge
			batch := make([]wire.Pointer, rng.Intn(20))
			for i := range batch {
				batch[i] = randomPointer(rng, universe)
			}
			sort.SliceStable(batch, func(i, j int) bool { return batch[i].ID.Less(batch[j].ID) })
			pl.MergeSorted(batch, des.Time(step), nil, nil)
			check("merge", step)
		case 9: // shed a prefix, as level lowering does
			if pl.Len() > 0 {
				anchor := pl.At(rng.Intn(pl.Len())).ID
				pl.DropOutsidePrefix(nodeid.EigenstringOf(anchor, rng.Intn(3)))
				check("drop", step)
			}
		}
	}
}

// randomInfo draws a pointer's info: absent, empty, or one of two values,
// each a fresh slice, so a held pointer's info goes nil → set → changed
// → nil across successive draws.
func randomInfo(rng *xrand.Source) []byte {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return []byte{}
	case 2:
		return []byte("cpu=4")
	default:
		return []byte("cpu=8,disk=1")
	}
}

// modelEntry is the reference model's record of one held pointer.
type modelEntry struct {
	ptr         wire.Pointer
	first, last des.Time
}

// assertMatchesModel fails unless pl holds exactly the model's pointers,
// Info included, with the model's timestamps, and its invariants hold.
func assertMatchesModel(t *testing.T, pl *PeerList, model map[nodeid.ID]modelEntry, step int, op string) {
	t.Helper()
	if err := pl.CheckInvariants(); err != nil {
		t.Fatalf("step %d after %s: %v", step, op, err)
	}
	if pl.Len() != len(model) {
		t.Fatalf("step %d after %s: Len %d, model holds %d", step, op, pl.Len(), len(model))
	}
	pl.ForEach(func(p wire.Pointer, first, last des.Time) {
		m, ok := model[p.ID]
		if !ok {
			t.Fatalf("step %d after %s: %v held but not in the model", step, op, p.ID)
		}
		if !p.Equal(m.ptr) || first != m.first || last != m.last {
			t.Fatalf("step %d after %s: held %+v (%v,%v), model %+v (%v,%v)",
				step, op, p, first, last, m.ptr, m.first, m.last)
		}
		if q, _ := pl.Lookup(p.ID); !q.Equal(m.ptr) {
			t.Fatalf("step %d after %s: Lookup %+v, model %+v", step, op, q, m.ptr)
		}
	})
}

func TestPeerListInfoMatchesModel(t *testing.T) {
	rng := xrand.New(23)
	universe := make([]nodeid.ID, 60)
	for i := range universe {
		universe[i] = nodeid.ID{Hi: rng.Uint64(), Lo: rng.Uint64()}
	}
	draw := func() wire.Pointer {
		p := randomPointer(rng, universe)
		p.Info = randomInfo(rng)
		return p
	}
	var pl PeerList
	model := map[nodeid.ID]modelEntry{}
	upsertModel := func(p wire.Pointer, now des.Time) {
		m, ok := model[p.ID]
		if !ok {
			m.first = now
		}
		m.ptr, m.last = p, now
		model[p.ID] = m
	}
	removeModel := func(r removedPeer, step int, op string) {
		m, ok := model[r.ptr.ID]
		if !ok || !r.ptr.Equal(m.ptr) || r.firstSeen != m.first {
			t.Fatalf("step %d %s returned %+v first %v, model %+v (held %v)",
				step, op, r.ptr, r.firstSeen, m, ok)
		}
		delete(model, r.ptr.ID)
	}
	for step := 0; step < 3000; step++ {
		now := des.Time(step)
		var op string
		switch rng.Intn(10) {
		case 0, 1, 2:
			op = "upsert"
			p := draw()
			pl.Upsert(p, now)
			upsertModel(p, now)
		case 3, 4:
			op = "sorted merge"
			batch := make([]wire.Pointer, rng.Intn(12))
			for i := range batch {
				batch[i] = draw()
			}
			sort.Slice(batch, func(i, j int) bool { return batch[i].ID.Less(batch[j].ID) })
			dedup := batch[:0]
			for _, p := range batch {
				if len(dedup) == 0 || dedup[len(dedup)-1].ID != p.ID {
					dedup = append(dedup, p)
				}
			}
			pl.MergeSorted(dedup, now, nil, func(old, new wire.Pointer) {
				if m := model[old.ID]; !old.Equal(m.ptr) {
					t.Fatalf("step %d: onUpdate old %+v, model %+v", step, old, m.ptr)
				}
			})
			for _, p := range dedup {
				upsertModel(p, now)
			}
		case 5:
			op = "unsorted merge"
			batch := make([]wire.Pointer, 2+rng.Intn(8))
			for i := range batch {
				batch[i] = draw()
			}
			batch[1].ID = batch[0].ID // a duplicate forces the fallback
			pl.MergeSorted(batch, now, nil, nil)
			for _, p := range batch {
				upsertModel(p, now)
			}
		case 6, 7, 8:
			op = "remove"
			id := universe[rng.Intn(len(universe))]
			r, ok := pl.Remove(id)
			if _, held := model[id]; ok != held {
				t.Fatalf("step %d: Remove reported %v, model holds %v", step, ok, held)
			}
			if ok {
				removeModel(r, step, op)
			}
		case 9:
			op = "drop outside prefix"
			e := nodeid.EigenstringOf(universe[rng.Intn(len(universe))], rng.Intn(3))
			for _, r := range pl.DropOutsidePrefix(e) {
				if e.Contains(r.ptr.ID) {
					t.Fatalf("step %d: dropped %v inside %v", step, r.ptr.ID, e)
				}
				removeModel(r, step, op)
			}
		}
		assertMatchesModel(t, &pl, model, step, op)
	}
	if pl.info == nil {
		t.Fatal("no held pointer ever carried info; the case is not exercised")
	}
}
