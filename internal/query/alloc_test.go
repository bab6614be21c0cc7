package query

import (
	"fmt"
	"testing"

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
// delta: a level change keeps the entry's info string and the bucket's
// field index, so it costs the entry copy, the bucket, the bucket table
// and the view — nothing per info byte or per field.
func TestLevelOnlyUpdateAllocations(t *testing.T) {
	if invariant.Enabled {
		t.Skip("the pwinvariants build re-digests and re-indexes at every publish")
	}
	s, ps := benchStore(4096)
	s.View().WithField("os=linux") // publish every bucket's field index
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		j := i % len(ps)
		up := ps[j]
		up.Level = uint8(i % 8)
		s.PeerUpdated(ps[j], up)
		ps[j] = up
		i++
	}); allocs > 4 {
		t.Fatalf("level-only PeerUpdated allocates %v, want at most 4", allocs)
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

// TestFieldIndexBuildAllocationsIndependentOfFields: a bucket whose
// entries share one field and a bucket whose every entry carries distinct
// fields cost the same three allocations to index.
func TestFieldIndexBuildAllocationsIndependentOfFields(t *testing.T) {
	shared := make([]Entry, maxBucket)
	distinct := make([]Entry, maxBucket)
	for i := range shared {
		shared[i] = EntryOf(ptr(fmt.Sprintf("s-%d", i), 0, "os=linux"))
		distinct[i] = EntryOf(ptr(fmt.Sprintf("d-%d", i), 0, fmt.Sprintf("slot=%d;host=h%d;rack=%d", i, i, i)))
	}
	for _, c := range []struct {
		name string
		ents []Entry
	}{{"shared", shared}, {"distinct", distinct}} {
		if allocs := testing.AllocsPerRun(100, func() { buildFieldIndex(c.ents) }); allocs != 3 {
			t.Errorf("%s fields: index build allocates %v, want 3", c.name, allocs)
		}
	}
}
