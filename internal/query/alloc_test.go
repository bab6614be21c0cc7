package query

import (
	"fmt"
	"testing"
	"unsafe"

	"peerwindow/internal/invariant"
)

// The snapshot read path carries //pwlint:noalloc contracts (Get, At,
// Each, MinLevel, CountAtLevel and the bucket search underneath); these
// guards pin them at runtime against a populated view.

func TestViewReadPathDoesNotAllocate(t *testing.T) {
	s, ps := benchStore(4096)
	v := s.View()
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		p := ps[i%len(ps)]
		if _, ok := v.Get(p.ID); !ok {
			t.Fatal("lookup miss")
		}
		_ = v.At(i % v.Len())
		if v.MinLevel() < 0 {
			t.Fatal("empty view")
		}
		_ = v.CountAtLevel(3)
		i++
	}); allocs != 0 {
		t.Fatalf("view read path allocates %v per round", allocs)
	}
}

func TestViewEachDoesNotAllocate(t *testing.T) {
	s, _ := benchStore(1024)
	v := s.View()
	count := 0
	fn := func(Entry) bool { count++; return true }
	if allocs := testing.AllocsPerRun(100, func() {
		count = 0
		v.Each(fn)
		if count != v.Len() {
			t.Fatalf("visited %d of %d entries", count, v.Len())
		}
	}); allocs != 0 {
		t.Fatalf("Each allocates %v per full scan", allocs)
	}
}

// TestLevelOnlyUpdateAllocations pins the write path of the commonest
// delta: a level change keeps the entry's info string, the bucket and its
// field index, so it costs the entry copy, the bucket table when the view
// cannot carry it inline, and the view — nothing per info byte or per
// field.
func TestLevelOnlyUpdateAllocations(t *testing.T) {
	if invariant.Enabled {
		t.Skip("the pwinvariants build re-digests and re-indexes at every publish")
	}
	for _, c := range []struct{ n, want int }{{4096, 3}, {16, 2}} {
		s, ps := benchStore(c.n)
		s.View().WithField("os=linux") // publish every bucket's field index
		i := 0
		if allocs := testing.AllocsPerRun(1000, func() {
			j := i % len(ps)
			up := ps[j]
			up.Level = (up.Level + 1) % 8 // every update changes the level
			s.PeerUpdated(ps[j], up)
			ps[j] = up
			i++
		}); allocs > float64(c.want) {
			t.Errorf("N = %d: level-only PeerUpdated allocates %v, want at most %d", c.n, allocs, c.want)
		}
	}
}

// TestRowSize pins a row of the bucket table at 48 bytes: the two levels
// must fit beside a 32-bit start. Every delta copies the table, so a
// row's size is paid per delta.
func TestRowSize(t *testing.T) {
	if size := unsafe.Sizeof(row{}); size != 48 {
		t.Fatalf("row is %d bytes, want 48", size)
	}
}

// TestInfoOnlyUpdateAllocations pins the write path of an info change on
// a window of one bucket: the update keeps the bucket and the view
// carries its bucket table inline, so it costs the entry copy, the view
// and the info string.
func TestInfoOnlyUpdateAllocations(t *testing.T) {
	if invariant.Enabled {
		t.Skip("the pwinvariants build re-digests and re-indexes at every publish")
	}
	s, ps := benchStore(16)
	s.View().WithField("os=linux") // publish the bucket's field index
	infos := [][]byte{[]byte("os=linux;role=db;rev=a"), []byte("os=plan9;role=edge;rev=b")}
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		j := i % len(ps)
		up := ps[j]
		up.Info = infos[(i/len(ps))%2] // differs from the entry's last info
		s.PeerUpdated(ps[j], up)
		ps[j] = up
		i++
	}); allocs > 3 {
		t.Fatalf("info-only PeerUpdated allocates %v, want at most 3", allocs)
	}
}

// TestWithFieldAllocatesOnlyItsResult: on a view whose field indexes are
// built, WithField counts its hits and then fills one exactly sized slice.
func TestWithFieldAllocatesOnlyItsResult(t *testing.T) {
	s, _ := benchStore(4096)
	v := s.View()
	if allocs := testing.AllocsPerRun(100, func() {
		if len(v.WithField("slot=13")) == 0 {
			t.Fatal("empty result")
		}
	}); allocs != 1 {
		t.Fatalf("WithField on a warm view allocates %v, want 1", allocs)
	}
}

// TestWithFieldAbsentDoesNotAllocate: a value no bucket holds misses in
// every bucket's table and returns nil without allocating.
func TestWithFieldAbsentDoesNotAllocate(t *testing.T) {
	s, _ := benchStore(4096)
	v := s.View()
	v.WithField("os=linux") // publish every bucket's field index
	if allocs := testing.AllocsPerRun(100, func() {
		if got := v.WithField("os=beos"); got != nil {
			t.Fatalf("absent value returned %d entries", len(got))
		}
	}); allocs != 0 {
		t.Fatalf("WithField of an absent value allocates %v, want 0", allocs)
	}
}

// fieldShapes returns full buckets of three shapes: benchStore's infos
// (91 distinct values over 3 fields per entry), one field every entry
// shares, and 3 fields no two entries share (the interning table's worst
// case).
func fieldShapes() []struct {
	name string
	ents []Entry
} {
	s, _ := benchStore(2 * maxBucket)
	shared := make([]Entry, maxBucket)
	distinct := make([]Entry, maxBucket)
	for i := range shared {
		shared[i] = EntryOf(ptr(fmt.Sprintf("s-%d", i), 0, "os=linux"))
		distinct[i] = EntryOf(ptr(fmt.Sprintf("d-%d", i), 0, fmt.Sprintf("slot=%d;host=h%d;rack=%d", i, i, i)))
	}
	return []struct {
		name string
		ents []Entry
	}{{"benchStore", s.View().rows[0].ents}, {"shared", shared}, {"distinct", distinct}}
}

// TestFieldIndexBuildAllocationsIndependentOfFields: a bucket whose
// entries share one field and a bucket whose every entry carries distinct
// fields cost the same three allocations to index.
func TestFieldIndexBuildAllocationsIndependentOfFields(t *testing.T) {
	for _, c := range fieldShapes() {
		if allocs := testing.AllocsPerRun(100, func() { buildFieldIndex(c.ents) }); allocs != 3 {
			t.Errorf("%s fields: index build allocates %v, want 3", c.name, allocs)
		}
	}
}

// TestFieldIndexIsExactlySized: a published index holds no spare
// capacity — one posting per distinct value, one offset per (value, entry)
// pair, a table at most half full — so its heap does not grow with
// repeated fields.
func TestFieldIndexIsExactlySized(t *testing.T) {
	for _, c := range fieldShapes() {
		if msg := sizeError(buildFieldIndex(c.ents)); msg != "" {
			t.Errorf("%s fields: %s", c.name, msg)
		}
	}
}
