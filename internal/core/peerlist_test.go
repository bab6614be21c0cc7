package core

import (
	"testing"
	"testing/quick"
	"unsafe"

	"peerwindow/internal/des"
	"peerwindow/internal/nodeid"
	"peerwindow/internal/wire"
	"peerwindow/internal/xrand"
)

func mkPtr(bits string, level int) wire.Pointer {
	id, err := nodeid.FromBitString(bits)
	if err != nil {
		panic(err)
	}
	return wire.Pointer{Addr: wire.Addr(1 + id.Hi>>48), ID: id, Level: uint8(level)}
}

// A stored peer-list slot is 48 bytes: ID, address, two exact
// timestamps, level and the has-info flag. Info lives out of line.
func TestPeerSlotIs48Bytes(t *testing.T) {
	if got := unsafe.Sizeof(peerSlot{}); got != 48 {
		t.Fatalf("peerSlot is %d bytes, want 48", got)
	}
}

func TestPeerListUpsertRemove(t *testing.T) {
	var pl PeerList
	p1 := mkPtr("0001", 0)
	p2 := mkPtr("1001", 1)
	if !pl.Upsert(p1, 10) || !pl.Upsert(p2, 10) {
		t.Fatal("fresh upserts should report new")
	}
	if pl.Len() != 2 {
		t.Fatalf("Len = %d", pl.Len())
	}
	// Update in place: level change must be reflected and not duplicate.
	p1b := p1
	p1b.Level = 3
	if pl.Upsert(p1b, 20) {
		t.Fatal("update reported as new")
	}
	if pl.Len() != 2 {
		t.Fatal("update duplicated the entry")
	}
	got, ok := pl.Lookup(p1.ID)
	if !ok || got.Level != 3 {
		t.Fatalf("lookup after update: %+v ok=%v", got, ok)
	}
	e, ok := pl.Remove(p1.ID)
	if !ok || e.ptr.ID != p1.ID {
		t.Fatal("remove failed")
	}
	if _, ok := pl.Remove(p1.ID); ok {
		t.Fatal("double remove succeeded")
	}
	if pl.Len() != 1 {
		t.Fatalf("Len after remove = %d", pl.Len())
	}
}

func TestPeerListSortedOrder(t *testing.T) {
	var pl PeerList
	rng := xrand.New(1)
	for i := 0; i < 200; i++ {
		id := nodeid.ID{Hi: rng.Uint64(), Lo: rng.Uint64()}
		pl.Upsert(wire.Pointer{Addr: wire.Addr(i + 1), ID: id}, des.Time(i))
	}
	prev := nodeid.ID{}
	first := true
	pl.ForEach(func(p wire.Pointer, _, _ des.Time) {
		if !first && !prev.Less(p.ID) {
			t.Fatal("entries out of order")
		}
		prev, first = p.ID, false
	})
}

func TestPeerListLevelsAccounting(t *testing.T) {
	var pl PeerList
	pl.Upsert(mkPtr("0000", 0), 0)
	pl.Upsert(mkPtr("0100", 2), 0)
	pl.Upsert(mkPtr("1000", 2), 0)
	if pl.MinLevel() != 0 {
		t.Fatalf("MinLevel = %d", pl.MinLevel())
	}
	pl.Remove(mkPtr("0000", 0).ID)
	if pl.MinLevel() != 2 {
		t.Fatalf("MinLevel after removal = %d", pl.MinLevel())
	}
	// Level change via upsert.
	pl.Upsert(mkPtr("0100", 5), 1)
	if pl.MinLevel() != 2 {
		t.Fatalf("MinLevel after level change = %d", pl.MinLevel())
	}
	pl.Upsert(mkPtr("1000", 7), 2)
	if pl.MinLevel() != 5 {
		t.Fatalf("MinLevel = %d want 5", pl.MinLevel())
	}
	st, ok := pl.Strongest()
	if !ok || st.Level != 5 {
		t.Fatalf("Strongest = %+v ok=%v", st, ok)
	}
	var empty PeerList
	if empty.MinLevel() != -1 {
		t.Fatal("empty MinLevel should be -1")
	}
	if _, ok := empty.Strongest(); ok {
		t.Fatal("empty Strongest should fail")
	}
}

func TestPeerListSuccessorWraps(t *testing.T) {
	var pl PeerList
	a := mkPtr("0010", 0)
	b := mkPtr("0100", 0)
	c := mkPtr("1000", 0)
	for _, p := range []wire.Pointer{a, b, c} {
		pl.Upsert(p, 0)
	}
	// Successor of b is c; successor of c wraps to a.
	if s, ok := pl.Successor(b.ID, nil); !ok || s.ID != c.ID {
		t.Fatalf("Successor(b) = %+v", s)
	}
	if s, ok := pl.Successor(c.ID, nil); !ok || s.ID != a.ID {
		t.Fatalf("Successor(c) should wrap to a, got %+v", s)
	}
	// With a filter.
	lvl := func(want uint8) func(wire.Pointer) bool {
		return func(p wire.Pointer) bool { return p.Level == want }
	}
	pl.Upsert(mkPtr("0110", 4), 0)
	if s, ok := pl.Successor(b.ID, lvl(4)); !ok || s.Level != 4 {
		t.Fatalf("filtered successor = %+v ok=%v", s, ok)
	}
	if _, ok := pl.Successor(b.ID, lvl(9)); ok {
		t.Fatal("no level-9 nodes exist; successor should fail")
	}
	var empty PeerList
	if _, ok := empty.Successor(a.ID, nil); ok {
		t.Fatal("successor in empty list should fail")
	}
}

func TestPeerListInPrefix(t *testing.T) {
	var pl PeerList
	ids := []string{"0000", "0011", "0100", "0111", "1000", "1111"}
	for _, s := range ids {
		pl.Upsert(mkPtr(s, 0), 0)
	}
	e, _ := nodeid.ParseEigenstring("0")
	got := pl.InPrefix(e)
	if len(got) != 4 {
		t.Fatalf("InPrefix(0) returned %d entries", len(got))
	}
	if pl.CountInPrefix(e) != 4 {
		t.Fatal("CountInPrefix mismatch")
	}
	e2, _ := nodeid.ParseEigenstring("01")
	if pl.CountInPrefix(e2) != 2 {
		t.Fatalf("CountInPrefix(01) = %d", pl.CountInPrefix(e2))
	}
	blank := nodeid.Eigenstring{}
	if pl.CountInPrefix(blank) != 6 {
		t.Fatal("blank prefix should cover all")
	}
	// Prefix region with no entries.
	e3, _ := nodeid.ParseEigenstring("110")
	if pl.CountInPrefix(e3) != 0 || pl.InPrefix(e3) != nil {
		t.Fatal("empty region should return nothing")
	}
}

func TestPeerListInPrefixTopOfSpace(t *testing.T) {
	// Prefix "1…1" wraps the upper bound past 2^128; the range must
	// extend to the end of the list.
	var pl PeerList
	hi := wire.Pointer{Addr: 1, ID: nodeid.ID{Hi: ^uint64(0), Lo: ^uint64(0)}}
	pl.Upsert(hi, 0)
	e := nodeid.EigenstringOf(hi.ID, 64)
	if pl.CountInPrefix(e) != 1 {
		t.Fatal("top-of-space prefix lost the last entry")
	}
}

func TestPeerListDropOutsidePrefix(t *testing.T) {
	var pl PeerList
	for _, s := range []string{"0000", "0011", "0100", "1000", "1100"} {
		pl.Upsert(mkPtr(s, 0), 0)
	}
	e, _ := nodeid.ParseEigenstring("0")
	dropped := pl.DropOutsidePrefix(e)
	if len(dropped) != 2 {
		t.Fatalf("dropped %d want 2", len(dropped))
	}
	if pl.Len() != 3 {
		t.Fatalf("kept %d want 3", pl.Len())
	}
	pl.ForEach(func(p wire.Pointer, _, _ des.Time) {
		if !e.Contains(p.ID) {
			t.Fatal("kept entry outside prefix")
		}
	})
	// Dropping with an all-covering prefix is a no-op.
	if got := pl.DropOutsidePrefix(nodeid.Eigenstring{}); got != nil {
		t.Fatal("blank prefix drop should be a no-op")
	}
	// Level counts must survive the compaction.
	if pl.MinLevel() != 0 {
		t.Fatal("level accounting broken after drop")
	}
}

// Re-upserting a held pointer touches it: lastSeen moves to now while
// firstSeen keeps the node's first sighting.
func TestPeerListTouch(t *testing.T) {
	var pl PeerList
	p := mkPtr("0101", 1)
	pl.Upsert(p, 5)
	if pl.Upsert(p, 77) {
		t.Fatal("touch of present entry inserted a new one")
	}
	var firstSeen, lastSeen des.Time
	pl.ForEach(func(_ wire.Pointer, fs, ls des.Time) { firstSeen, lastSeen = fs, ls })
	if firstSeen != 5 || lastSeen != 77 {
		t.Fatalf("firstSeen, lastSeen = %v, %v, want 5, 77", firstSeen, lastSeen)
	}
}

func TestStrongestForStepSelection(t *testing.T) {
	var pl PeerList
	self, _ := nodeid.FromBitString("0000")
	subject, _ := nodeid.FromBitString("0110")
	// Candidates for step 1 (share bit 0, differ at bit 1): prefix "01".
	strong := mkPtr("0100", 1)  // level 1, eigenstring "0" — prefix of subject? "0" yes
	weak := mkPtr("0101", 3)    // level 3, eigenstring "010" — not prefix of 0110
	middle := mkPtr("0111", 2)  // level 2, eigenstring "01" — prefix of subject
	outside := mkPtr("1100", 0) // differs at bit 0: not a step-1 candidate
	for _, p := range []wire.Pointer{strong, weak, middle, outside} {
		pl.Upsert(p, 0)
	}
	rng := xrand.New(1)
	got, ok := pl.StrongestForStep(self, 1, subject, nil, rng)
	if !ok {
		t.Fatal("no candidate found")
	}
	if got.ID != strong.ID {
		t.Fatalf("picked %v, want the strongest audience member", got.ID)
	}
	// Skip the strongest: the next audience member is 'middle' (weak is
	// not in the subject's audience).
	skip := map[nodeid.ID]bool{strong.ID: true}
	got, ok = pl.StrongestForStep(self, 1, subject, skip, rng)
	if !ok || got.ID != middle.ID {
		t.Fatalf("with skip picked %+v ok=%v, want middle", got, ok)
	}
	skip[middle.ID] = true
	if _, ok = pl.StrongestForStep(self, 1, subject, skip, rng); ok {
		t.Fatal("no audience candidates should remain")
	}
	// Step beyond the ID width.
	if _, ok := pl.StrongestForStep(self, nodeid.Bits, subject, nil, rng); ok {
		t.Fatal("step out of range should fail")
	}
}

func TestStrongestForStepRandomTieBreak(t *testing.T) {
	var pl PeerList
	self, _ := nodeid.FromBitString("0000")
	subject, _ := nodeid.FromBitString("1111")
	// Two equal-level candidates for step 0 (differ at bit 0): both
	// audience members of subject (level 0 contains everything... use
	// level 1 with prefix "1").
	a := mkPtr("1000", 1)
	b := mkPtr("1100", 1)
	pl.Upsert(a, 0)
	pl.Upsert(b, 0)
	seenA, seenB := false, false
	rng := xrand.New(7)
	for i := 0; i < 100 && !(seenA && seenB); i++ {
		got, ok := pl.StrongestForStep(self, 0, subject, nil, rng)
		if !ok {
			t.Fatal("candidate expected")
		}
		switch got.ID {
		case a.ID:
			seenA = true
		case b.ID:
			seenB = true
		default:
			t.Fatalf("unexpected candidate %v", got.ID)
		}
	}
	if !seenA || !seenB {
		t.Fatal("tie-break never alternated; stale entries would be immortal")
	}
}

func TestPeerListPropertyPrefixConsistency(t *testing.T) {
	// For random lists and random eigenstrings, InPrefix must agree with
	// a brute-force filter.
	f := func(seed uint64, l8 uint8) bool {
		rng := xrand.New(seed)
		var pl PeerList
		var all []wire.Pointer
		for i := 0; i < 64; i++ {
			p := wire.Pointer{
				Addr: wire.Addr(i + 1),
				ID:   nodeid.ID{Hi: rng.Uint64(), Lo: rng.Uint64()},
			}
			pl.Upsert(p, 0)
			all = append(all, p)
		}
		probe := all[int(l8)%len(all)].ID
		level := int(l8) % 12
		e := nodeid.EigenstringOf(probe, level)
		want := 0
		for _, p := range all {
			if e.Contains(p.ID) {
				want++
			}
		}
		return pl.CountInPrefix(e) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPeerListAtAndPointers(t *testing.T) {
	var pl PeerList
	for _, s := range []string{"0001", "0010", "0100"} {
		pl.Upsert(mkPtr(s, 0), 0)
	}
	ps := pl.Pointers()
	if len(ps) != 3 {
		t.Fatalf("Pointers len %d", len(ps))
	}
	for i := range ps {
		if !pl.At(i).Equal(ps[i]) {
			t.Fatal("At disagrees with Pointers")
		}
	}
}

func benchList(n int) (*PeerList, []wire.Pointer) {
	rng := xrand.New(1)
	var pl PeerList
	ptrs := make([]wire.Pointer, n)
	for i := 0; i < n; i++ {
		p := wire.Pointer{
			Addr:  wire.Addr(i + 1),
			ID:    nodeid.ID{Hi: rng.Uint64(), Lo: rng.Uint64()},
			Level: uint8(rng.Intn(4)),
		}
		ptrs[i] = p
		pl.Upsert(p, 0)
	}
	return &pl, ptrs
}

func BenchmarkPeerListUpsert100k(b *testing.B) {
	pl, ptrs := benchList(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := ptrs[i%len(ptrs)]
		pl.Upsert(p, des.Time(i))
	}
}

func BenchmarkPeerListSuccessor100k(b *testing.B) {
	pl, ptrs := benchList(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl.Successor(ptrs[i%len(ptrs)].ID, nil)
	}
}

func BenchmarkStrongestForStep100k(b *testing.B) {
	pl, ptrs := benchList(100000)
	rng := xrand.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := ptrs[i%len(ptrs)]
		pl.StrongestForStep(p.ID, i%10, ptrs[(i+7)%len(ptrs)].ID, nil, rng)
	}
}

func BenchmarkCountInPrefix100k(b *testing.B) {
	pl, ptrs := benchList(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := ptrs[i%len(ptrs)]
		pl.CountInPrefix(nodeid.EigenstringOf(p.ID, i%12))
	}
}
