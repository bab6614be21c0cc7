package core

import (
	"math"
	"slices"
	"sort"
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

// A stored peer-list slot is 48 bytes: the shared entry (ID, address,
// level and the has-info flag) is 32, the holder's two exact timestamps
// 16. Info lives out of line. A chunk of shared entries fits in 2 KB.
func TestPeerSlotIs48Bytes(t *testing.T) {
	if e, s := unsafe.Sizeof(entry{}), unsafe.Sizeof(stamp{}); e != 32 || s != 16 {
		t.Fatalf("entry is %d bytes and stamp %d, want 32 and 16", e, s)
	}
	if got := unsafe.Sizeof(chunk{}); got > 2048 {
		t.Fatalf("chunk is %d bytes, over 2 KB", got)
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
	if countInPrefix(&pl, e) != 4 {
		t.Fatal("prefixRange mismatch")
	}
	e2, _ := nodeid.ParseEigenstring("01")
	if countInPrefix(&pl, e2) != 2 {
		t.Fatalf("prefixRange(01) spans %d", countInPrefix(&pl, e2))
	}
	blank := nodeid.Eigenstring{}
	if countInPrefix(&pl, blank) != 6 {
		t.Fatal("blank prefix should cover all")
	}
	// Prefix region with no entries.
	e3, _ := nodeid.ParseEigenstring("110")
	if countInPrefix(&pl, e3) != 0 || pl.InPrefix(e3) != nil {
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
	if countInPrefix(&pl, e) != 1 {
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

// countInPrefix returns how many entries of pl match the eigenstring.
func countInPrefix(pl *PeerList, e nodeid.Eigenstring) int {
	lo, hi := pl.prefixRange(e)
	return hi - lo
}

// stepTarget is the redirect path's pick (Node.stepFailed): the strongest
// audience member of subject among the entries that share the first s
// bits of self and differ at bit s, skipping the IDs in skip.
func stepTarget(pl *PeerList, self nodeid.ID, s int, subject nodeid.ID, skip []nodeid.ID, rng *xrand.Source) (wire.Pointer, bool) {
	lo, hi := pl.prefixRange(nodeid.EigenstringOf(self.FlipBit(s), s+1))
	var failed []wire.Pointer
	for _, id := range skip {
		failed = append(failed, wire.Pointer{ID: id})
	}
	return pl.strongestIn(lo, hi, subject, failed, rng)
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
	got, ok := stepTarget(&pl, self, 1, subject, nil, rng)
	if !ok {
		t.Fatal("no candidate found")
	}
	if got.ID != strong.ID {
		t.Fatalf("picked %v, want the strongest audience member", got.ID)
	}
	// Skip the strongest: the next audience member is 'middle' (weak is
	// not in the subject's audience).
	skip := []nodeid.ID{strong.ID}
	got, ok = stepTarget(&pl, self, 1, subject, skip, rng)
	if !ok || got.ID != middle.ID {
		t.Fatalf("with skip picked %+v ok=%v, want middle", got, ok)
	}
	skip = append(skip, middle.ID)
	if _, ok = stepTarget(&pl, self, 1, subject, skip, rng); ok {
		t.Fatal("no audience candidates should remain")
	}
	// The last step's candidates differ from self at bit 127 only.
	if _, ok := stepTarget(&pl, self, nodeid.Bits-1, subject, nil, rng); ok {
		t.Fatal("no candidate shares self's first 127 bits")
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
		got, ok := stepTarget(&pl, self, 0, subject, nil, rng)
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
		return countInPrefix(&pl, e) == want
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

func BenchmarkStepTarget100k(b *testing.B) {
	pl, ptrs := benchList(100000)
	rng := xrand.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := ptrs[i%len(ptrs)]
		stepTarget(pl, p.ID, i%10, ptrs[(i+7)%len(ptrs)].ID, nil, rng)
	}
}

// flatEntry is one entry of flatList.
type flatEntry struct {
	p           wire.Pointer
	first, last des.Time
}

// flatList is the reference model of a PeerList: one sorted slice,
// every query a scan or a sort.Search over it.
type flatList []flatEntry

func (f flatList) search(id nodeid.ID) int {
	return sort.Search(len(f), func(i int) bool { return !f[i].p.ID.Less(id) })
}

func (f *flatList) upsert(p wire.Pointer, now des.Time) bool {
	i := f.search(p.ID)
	if i < len(*f) && (*f)[i].p.ID == p.ID {
		(*f)[i].p, (*f)[i].last = p, now
		return false
	}
	*f = append(*f, flatEntry{})
	copy((*f)[i+1:], (*f)[i:])
	(*f)[i] = flatEntry{p: p, first: now, last: now}
	return true
}

func (f *flatList) remove(id nodeid.ID) bool {
	i := f.search(id)
	if i == len(*f) || (*f)[i].p.ID != id {
		return false
	}
	*f = append((*f)[:i], (*f)[i+1:]...)
	return true
}

func (f flatList) prefixRange(e nodeid.Eigenstring) (lo, hi int) {
	lo = sort.Search(len(f), func(i int) bool { return !f[i].p.ID.Less(e.Prefix) })
	hi = lo
	for hi < len(f) && e.Contains(f[hi].p.ID) {
		hi++
	}
	return lo, hi
}

func (f flatList) strongestForStep(self nodeid.ID, s int, subject nodeid.ID, skip []nodeid.ID, rng *xrand.Source) (wire.Pointer, bool) {
	lo, hi := f.prefixRange(nodeid.EigenstringOf(self.FlipBit(s), s+1))
	span := hi - lo
	if span <= 0 {
		return wire.Pointer{}, false
	}
	offset := 0
	if span > 1 {
		offset = rng.Intn(span)
	}
	best, bestLevel := -1, 256
	for k := 0; k < span; k++ {
		i := lo + (offset+k)%span
		c := f[i].p
		if int(c.Level) >= bestLevel || slices.Contains(skip, c.ID) || c.ID.Prefix(int(c.Level)) != subject.Prefix(int(c.Level)) {
			continue
		}
		best, bestLevel = i, int(c.Level)
		if bestLevel == 0 {
			break
		}
	}
	if best < 0 {
		return wire.Pointer{}, false
	}
	return f[best].p, true
}

// sharedSide is one of the lists of a sharing test, with its model.
type sharedSide struct {
	pl  *PeerList
	ref flatList
}

// newSides returns the lists of a sharing test: two on one pool, and a
// zero PeerList, which makes its own pool at its first write.
func newSides() []*sharedSide {
	pool := &ChunkPool{}
	return []*sharedSide{{pl: &PeerList{pool: pool}}, {pl: &PeerList{pool: pool}}, {pl: &PeerList{}}}
}

// checkShared fails unless each list's pool passes its check against
// every list it serves, and returns how many chunks more than one list
// holds.
func checkShared(t *testing.T, sides []*sharedSide, step int) int {
	t.Helper()
	served := make(map[*ChunkPool][]*PeerList)
	for _, s := range sides {
		if s.pl.pool != nil {
			served[s.pl.pool] = append(served[s.pl.pool], s.pl)
		}
	}
	shared := 0
	for pool, lists := range served {
		if err := pool.CheckInvariants(lists); err != nil {
			t.Fatalf("step %d: chunk pool of %d lists: %v", step, len(lists), err)
		}
		for _, c := range pool.index {
			for ; c != nil; c = c.next {
				if c.refs > 1 {
					shared++
				}
			}
		}
	}
	return shared
}

// TestPeerListMatchesFlatModel drives two lists on one shared chunk pool
// and a zero list on a pool of its own past 2,000 entries each — dozens
// of chunks and leaves — and drains them to empty with random Upsert,
// Remove, MergeSorted and DropOutsidePrefix, interleaved, each list
// taking its own stream and checked against its own model after every
// step, and each pool against the lists it serves. The lists draw from
// one universe of IDs with mostly fixed attributes, and while they grow a
// merge is now and then a download of a run of another list's entries,
// as a peer-list reply carries, so runs of equal entries — shared chunks
// — form, split and merge between them; the universe has a quarter of
// the usual natural ends, so size-capped chunks form too. The other
// property tests stay within a few chunks.
func TestPeerListMatchesFlatModel(t *testing.T) {
	rng := xrand.New(41)
	universe := make([]wire.Pointer, 0, 6000)
	for len(universe) < cap(universe) {
		id := nodeid.ID{Hi: rng.Uint64(), Lo: rng.Uint64()}
		if natural(id) && rng.Intn(4) > 0 {
			continue
		}
		universe = append(universe, wire.Pointer{Addr: wire.Addr(1 + rng.Intn(1<<20)), ID: id, Level: uint8(rng.Intn(3))})
	}
	sides := newSides()
	// pick draws a pointer for s: a universe member (fresh percent of the
	// time) or one s holds, with its usual attributes nine times in ten.
	pick := func(s *sharedSide, fresh int) wire.Pointer {
		p := universe[rng.Intn(len(universe))]
		if len(s.ref) > 0 && rng.Intn(100) >= fresh {
			p = s.ref[rng.Intn(len(s.ref))].p
		}
		if rng.Intn(10) == 0 {
			p.Level, p.Info = uint8(rng.Intn(6)), randomInfo(rng)
		}
		return p
	}
	// held returns the entries all sides hold, the fewest one side
	// holds, and the chunks all sides hold.
	held := func() (n, least, chunks int) {
		least = math.MaxInt
		for _, s := range sides {
			n, least, chunks = n+len(s.ref), min(least, len(s.ref)), chunks+len(s.pl.dir)
		}
		return n, least, chunks
	}
	growing, peak, chunks, shared := true, 0, 0, 0
	step := 0
	for n, _, _ := held(); growing || n > 0; n, _, _ = held() {
		if step++; step > 60000 {
			t.Fatalf("no progress: %d entries after %d steps", n, step)
		}
		s := sides[rng.Intn(len(sides))]
		// Percent thresholds for upsert, merge and remove; the rest
		// drops outside a prefix. Draining mostly removes.
		op, ups, merges, removes, fresh := rng.Intn(100), 35, 70, 98, 70
		if !growing {
			ups, merges, removes, fresh = 10, 20, 95, 5
		}
		var o listOp
		switch {
		case op < ups:
			o = listOp{kind: "upsert", ptr: pick(s, fresh)}
		case op < merges:
			size := rng.Intn(16)
			if rng.Intn(4) == 0 {
				size = 40 + rng.Intn(300)
			}
			batch := make([]wire.Pointer, 0, size)
			if from := sides[rng.Intn(len(sides))]; growing && from != s && len(from.ref) > 0 && rng.Intn(2) == 0 {
				at := rng.Intn(len(from.ref))
				for _, e := range from.ref[at:min(at+size, len(from.ref))] {
					batch = append(batch, e.p)
				}
			}
			for len(batch) < size {
				batch = append(batch, pick(s, fresh))
			}
			sort.Slice(batch, func(i, j int) bool { return batch[i].ID.Less(batch[j].ID) })
			o = listOp{kind: "merge", batch: dedupSorted(batch)}
		case op < removes:
			o = listOp{kind: "remove", id: pick(s, 10).ID}
		default:
			anchor := pick(s, 0).ID
			o = listOp{kind: "drop outside prefix", prefix: nodeid.EigenstringOf(anchor, 1+rng.Intn(2))}
		}
		applyAgainstFlat(t, s.pl, &s.ref, o, des.Time(step), rng, step)
		for _, other := range sides {
			if other != s {
				checkAgainstFlat(t, other.pl, other.ref, rng, step, "another list's "+o.kind)
			}
		}
		shared = max(shared, checkShared(t, sides, step))
		_, least, c := held()
		if least > 2000 {
			growing = false
		}
		peak, chunks = max(peak, least), max(chunks, c)
	}
	interned := 0
	for _, s := range sides {
		interned += s.pl.pool.interned
	}
	if _, _, c := held(); peak <= 2000 || shared == 0 || c != 0 || interned != 0 {
		t.Fatalf("peak %d entries, %d chunks shared at most, %d chunks held and %d interned at the end",
			peak, shared, c, interned)
	}
	t.Logf("%d operations, peak %d entries, %d chunks held and %d shared at most", step, peak, chunks, shared)
}

// dedupSorted keeps the first of each run of equal IDs in the sorted
// batch, in place.
func dedupSorted(batch []wire.Pointer) []wire.Pointer {
	out := batch[:0]
	for _, p := range batch {
		if len(out) == 0 || out[len(out)-1].ID != p.ID {
			out = append(out, p)
		}
	}
	return out
}

// listOp is one peer-list mutation of the model tests.
type listOp struct {
	kind   string             // "upsert", "merge", "remove" or "drop outside prefix"
	ptr    wire.Pointer       // upsert
	batch  []wire.Pointer     // merge, in any order, duplicates allowed
	id     nodeid.ID          // remove
	prefix nodeid.Eigenstring // drop outside prefix
}

// notice is one MergeSorted callback: the insertion of new, or an update
// of a held entry from old to new.
type notice struct {
	added    bool
	old, new wire.Pointer
}

// applyAgainstFlat applies op to pl and to the model ref, fails unless pl
// reports what the model says — return values and MergeSorted's
// callbacks, their count and order — and then checks every query with
// checkAgainstFlat.
func applyAgainstFlat(t *testing.T, pl *PeerList, ref *flatList, op listOp, now des.Time, rng *xrand.Source, step int) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("step %d %s: "+format, append([]any{step, op.kind}, args...)...)
	}
	switch op.kind {
	case "upsert":
		if got, want := pl.Upsert(op.ptr, now), ref.upsert(op.ptr, now); got != want {
			fail("Upsert reported new=%v, model %v", got, want)
		}
	case "merge":
		// Callbacks fire in application order, batch order: one per
		// pointer that is new or changes its entry.
		var want []notice
		added := 0
		for _, p := range op.batch {
			i := ref.search(p.ID)
			n := notice{added: i == len(*ref) || (*ref)[i].p.ID != p.ID, new: p}
			switch {
			case n.added:
				want = append(want, n)
			case !(*ref)[i].p.Equal(p):
				n.old = (*ref)[i].p
				want = append(want, n)
			}
			if ref.upsert(p, now) {
				added++
			}
		}
		var got []notice
		n := pl.MergeSorted(op.batch, now, func(p wire.Pointer) { got = append(got, notice{added: true, new: p}) },
			func(old, new wire.Pointer) { got = append(got, notice{old: old, new: new}) })
		if n != added || len(got) != len(want) {
			fail("merge of %d added %d with %d callbacks, model %d and %d",
				len(op.batch), n, len(got), added, len(want))
		}
		for k := range want {
			if g, w := got[k], want[k]; g.added != w.added || !g.old.Equal(w.old) || !g.new.Equal(w.new) {
				fail("callback #%d is %+v, model %+v", k, g, w)
			}
		}
	case "remove":
		i := ref.search(op.id)
		held := i < len(*ref) && (*ref)[i].p.ID == op.id
		r, ok := pl.Remove(op.id)
		if ok != held || held && (!r.ptr.Equal((*ref)[i].p) || r.firstSeen != (*ref)[i].first) {
			fail("Remove returned %+v,%v, model held=%v", r, ok, held)
		}
		ref.remove(op.id)
	case "drop outside prefix":
		dropped := pl.DropOutsidePrefix(op.prefix)
		lo, hi := ref.prefixRange(op.prefix)
		want := append(slices.Clip((*ref)[:lo]), (*ref)[hi:]...)
		if len(dropped) != len(want) {
			fail("dropped %d, model drops %d", len(dropped), len(want))
		}
		for k, w := range want {
			if !dropped[k].ptr.Equal(w.p) || dropped[k].firstSeen != w.first {
				fail("dropped #%d is %+v, model %+v", k, dropped[k], w)
			}
		}
		*ref = append((*ref)[:0], (*ref)[lo:hi]...)
	}
	checkAgainstFlat(t, pl, *ref, rng, step, op.kind)
}

// fuzzMaxOps caps the operations FuzzPeerListOps decodes from one
// input, so a long input costs no more than a short one; a batch holds
// at most 255 pointers.
const fuzzMaxOps = 64

// FuzzPeerListOps decodes fuzzer bytes into Upsert, Remove,
// DropOutsidePrefix and MergeSorted calls on two lists sharing one chunk
// pool and a zero list that mirrors the first on a pool of its own, over
// a universe of 256 IDs spread across the ring, and checks each with
// applyAgainstFlat, the lists an op skips against their own models, and
// each pool against the lists it serves. A merge batch is sorted, left in
// byte order, or sorted with its duplicate IDs kept (the shape
// applyPointers hands over for a malformed download), so both
// MergeSorted paths run, into empty lists and held ones.
//
// Encoding: an op byte c picks the operation by c%4, carries a variant
// in c>>2, and sends it by c>>6 to the first list and its mirror (0, 1),
// the second list (2) or all three (3); an ID is one byte, and an upsert
// or batch pointer is an ID byte then an attribute byte (address, level,
// info).
func FuzzPeerListOps(f *testing.F) {
	ptrs := func(ids ...int) []byte {
		var out []byte
		for _, id := range ids {
			out = append(out, byte(id), byte(id*37))
		}
		return out
	}
	span := func(from, n, stride int) []int {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = from + i*stride
		}
		return ids
	}
	// A 200-pointer download into the empty list, a half-new merge, an
	// unsorted merge, a merge with duplicates, removes, an upsert and a
	// drop.
	seed := append([]byte{3, 200}, ptrs(span(0, 200, 1)...)...)
	seed = append(seed, 3, 60)
	seed = append(seed, ptrs(span(150, 60, 2)...)...)
	seed = append(seed, 7, 5)
	seed = append(seed, ptrs(9, 3, 250, 3, 77)...)
	seed = append(seed, 11, 4)
	seed = append(seed, ptrs(40, 41, 40, 255)...)
	seed = append(seed, 1, 5, 1, 77, 0, 12, 99, 6, 200)
	f.Add(seed)
	f.Add(append([]byte{7, 4}, ptrs(5, 1, 5, 3)...))
	f.Add(append([]byte{11, 3, 0, 64}, append(ptrs(128, 128), 2, 0, 3, 0)...))
	// The same download into both lists, then removes and an upsert that
	// split and change their shared chunks one list at a time.
	both := append([]byte{0xc3, 250}, ptrs(span(0, 250, 1)...)...)
	both = append(both, 1, 17, 0x81, 33, 0, 90, 7, 0x80, 90, 8, 0x82, 1, 64)
	f.Add(both)
	infos := [][]byte{nil, {}, []byte("cpu=4"), []byte("cpu=8,disk=1")}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			c := data[0]
			data = data[1:]
			return c
		}
		id := func() nodeid.ID { return nodeid.ID{Hi: uint64(next()) << 56} }
		ptr := func() wire.Pointer {
			p := wire.Pointer{ID: id()}
			attr := next()
			p.Addr, p.Level, p.Info = wire.Addr(attr), attr%6, infos[attr>>6]
			return p
		}
		sides := newSides()
		rng := xrand.New(1)
		for step := 0; len(data) > 0 && step < fuzzMaxOps; step++ {
			var op listOp
			c := next()
			switch c % 4 {
			case 0:
				op = listOp{kind: "upsert", ptr: ptr()}
			case 1:
				op = listOp{kind: "remove", id: id()}
			case 2:
				op = listOp{kind: "drop outside prefix", prefix: nodeid.EigenstringOf(id(), int(c>>2)%4)}
			default:
				batch := make([]wire.Pointer, next())
				for i := range batch {
					batch[i] = ptr()
				}
				switch (c >> 2) % 3 {
				case 0:
					sort.Slice(batch, func(i, j int) bool { return batch[i].ID.Less(batch[j].ID) })
					batch = dedupSorted(batch)
				case 2:
					sort.SliceStable(batch, func(i, j int) bool { return batch[i].ID.Less(batch[j].ID) })
				}
				op = listOp{kind: "merge", batch: batch}
			}
			to := []*sharedSide{sides[0], sides[2]}
			switch c >> 6 {
			case 2:
				to = sides[1:2]
			case 3:
				to = sides
			}
			for _, s := range sides {
				if slices.Contains(to, s) {
					applyAgainstFlat(t, s.pl, &s.ref, op, des.Time(step), rng, step)
				} else {
					checkAgainstFlat(t, s.pl, s.ref, rng, step, "another list's "+op.kind)
				}
			}
			checkShared(t, sides, step)
		}
	})
}

// checkAgainstFlat fails unless pl answers every query as ref does.
func checkAgainstFlat(t *testing.T, pl *PeerList, ref flatList, rng *xrand.Source, step int, op string) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("step %d after %s: "+format, append([]any{step, op}, args...)...)
	}
	if err := pl.CheckInvariants(); err != nil {
		fail("%v", err)
	}
	if pl.Len() != len(ref) {
		fail("Len %d, model %d", pl.Len(), len(ref))
	}
	i := 0
	pl.ForEach(func(p wire.Pointer, first, last des.Time) {
		if w := ref[i]; !p.Equal(w.p) || first != w.first || last != w.last {
			fail("entry %d is %+v (%v,%v), model %+v (%v,%v)", i, p, first, last, w.p, w.first, w.last)
		}
		i++
	})
	want, ok := wire.Pointer{}, false
	for l := 0; l <= nodeid.Bits && !ok; l++ {
		for _, w := range ref {
			if int(w.p.Level) == l {
				want, ok = w.p, true
				break
			}
		}
	}
	if got, gok := pl.Strongest(); gok != ok || !got.Equal(want) {
		fail("Strongest = %v,%v, model %v,%v", got.ID, gok, want.ID, ok)
	}
	if got := pl.MinLevel(); !ok && got != -1 || ok && got != int(want.Level) {
		fail("MinLevel = %d, model %v (held %v)", got, want.Level, ok)
	}
	if len(ref) == 0 {
		return
	}
	for _, i := range []int{0, len(ref) - 1, rng.Intn(len(ref)), rng.Intn(len(ref))} {
		if got := pl.At(i); !got.Equal(ref[i].p) {
			fail("At(%d) = %v, model %v", i, got.ID, ref[i].p.ID)
		}
	}
	anyID := func() nodeid.ID {
		if rng.Intn(2) == 0 {
			return ref[rng.Intn(len(ref))].p.ID
		}
		return nodeid.ID{Hi: rng.Uint64(), Lo: rng.Uint64()}
	}
	for k := 0; k < 4; k++ {
		id := anyID()
		j := ref.search(id)
		held := j < len(ref) && ref[j].p.ID == id
		if got, ok := pl.Lookup(id); ok != held || (held && !got.Equal(ref[j].p)) {
			fail("Lookup(%v) = %v,%v, model held=%v", id, got.ID, ok, held)
		}
	}
	e := nodeid.EigenstringOf(anyID(), rng.Intn(10))
	lo, hi := ref.prefixRange(e)
	if got := countInPrefix(pl, e); got != hi-lo {
		fail("prefixRange(%v) spans %d, model %d", e, got, hi-lo)
	}
	in := pl.InPrefix(e)
	if len(in) != hi-lo {
		fail("InPrefix(%v) holds %d, model %d", e, len(in), hi-lo)
	}
	for k := range in {
		if !in[k].Equal(ref[lo+k].p) {
			fail("InPrefix(%v)[%d] = %v, model %v", e, k, in[k].ID, ref[lo+k].p.ID)
		}
	}
	id := anyID()
	strong := func(p wire.Pointer) bool { return p.Level <= 1 }
	for _, keep := range []func(wire.Pointer) bool{nil, strong} {
		want, ok := wire.Pointer{}, false
		start := sort.Search(len(ref), func(i int) bool { return id.Less(ref[i].p.ID) })
		for k := 0; k < len(ref) && !ok; k++ {
			if c := ref[(start+k)%len(ref)].p; c.ID != id && (keep == nil || keep(c)) {
				want, ok = c, true
			}
		}
		if got, gok := pl.Successor(id, keep); gok != ok || !got.Equal(want) {
			fail("Successor(%v) = %v,%v, model %v,%v", id, got.ID, gok, want.ID, ok)
		}
	}
	self, subject := anyID(), anyID()
	s := rng.Intn(12)
	skip := []nodeid.ID{ref[rng.Intn(len(ref))].p.ID}
	seed := rng.Uint64()
	got, gok := stepTarget(pl, self, s, subject, skip, xrand.New(seed))
	want, ok = ref.strongestForStep(self, s, subject, skip, xrand.New(seed))
	if gok != ok || !got.Equal(want) {
		fail("step %d target = %v,%v, model %v,%v", s, got.ID, gok, want.ID, ok)
	}
	// The multicast walk's one-search split agrees with the prefix
	// ranges it replaces at every step.
	lo, hi = pl.prefixRange(nodeid.EigenstringOf(self, s))
	for ; s < nodeid.Bits && lo < hi; s++ {
		var cLo, cHi int
		cLo, cHi, lo, hi = pl.splitStep(self, s, lo, hi)
		wLo, wHi := ref.prefixRange(nodeid.EigenstringOf(self.FlipBit(s), s+1))
		nLo, nHi := ref.prefixRange(nodeid.EigenstringOf(self, s+1))
		if (cLo != wLo || cHi != wHi) && (cLo < cHi || wLo < wHi) || (lo != nLo || hi != nHi) && (lo < hi || nLo < nHi) {
			fail("splitStep at step %d: candidates [%d,%d) next [%d,%d), model [%d,%d) and [%d,%d)",
				s, cLo, cHi, lo, hi, wLo, wHi, nLo, nHi)
		}
	}
}
