package query

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"peerwindow/internal/core"
	"peerwindow/internal/wire"
)

// An update keeps its bucket: the field index cell is shared by the views
// before and after it, and the row's gen tells their indexes apart. These
// tests pin that sharing.

// TestAddOfPresentIDReportsPrev: an add that degrades to an update
// carries the entry it replaced, as a PeerUpdated does.
func TestAddOfPresentIDReportsPrev(t *testing.T) {
	s := NewStore(nil)
	sub := s.Subscribe(4, nil)
	a := ptr("a", 1, "os=linux")
	s.PeerAdded(a)
	a2 := a
	a2.Level, a2.Info = 3, []byte("os=plan9")
	s.PeerAdded(a2)
	if d := <-sub.C(); d.Kind != DeltaAdd || d.HasPrev {
		t.Fatalf("first add: kind %v, HasPrev %v", d.Kind, d.HasPrev)
	}
	d := <-sub.C()
	if d.Kind != DeltaUpdate || !d.HasPrev {
		t.Fatalf("add of a present ID: kind %v, HasPrev %v; want update with Prev", d.Kind, d.HasPrev)
	}
	if !d.Prev.equalPtr(a) || !d.Entry.equalPtr(a2) {
		t.Fatalf("add of a present ID: Prev %v/%d %q, Entry %v/%d %q",
			d.Prev.ID, d.Prev.Level, d.Prev.Info(), d.Entry.ID, d.Entry.Level, d.Entry.Info())
	}
}

// TestUpdateKindsShareBuckets pins what each kind of update keeps of the
// row it replaces: every update keeps the bucket; an address or a level
// change keeps the gen and so the index, an info change bumps the gen.
func TestUpdateKindsShareBuckets(t *testing.T) {
	s, ps := benchStore(16)
	s.View().WithField("os=linux")
	step := func(name string, mutate func(*wire.Pointer)) (before, after row) {
		t.Helper()
		before = s.View().rows[0]
		up := ps[5]
		mutate(&up)
		s.PeerUpdated(ps[5], up)
		ps[5] = up
		after = s.View().rows[0]
		if err := s.CheckAgainst(sortedCopy(ps)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkBuckets(t, s.View())
		return before, after
	}
	b, a := step("address", func(p *wire.Pointer) { p.Addr++ })
	if a.bucket != b.bucket || a.gen != b.gen || rowIndex(&a) == nil {
		t.Fatal("an address change did not keep the bucket, gen and index")
	}
	b, a = step("info", func(p *wire.Pointer) { p.Info = []byte("os=plan9;role=new") })
	if a.bucket != b.bucket || a.gen != b.gen+1 || rowIndex(&a) != nil {
		t.Fatal("an info change did not keep the bucket under a new gen")
	}
	s.View().WithField("role=new")
	b, a = step("level", func(p *wire.Pointer) { p.Level = (p.Level + 1) % 8 })
	if a.bucket != b.bucket || a.gen != b.gen || rowIndex(&a) == nil || rowIndex(&a) != rowIndex(&b) {
		t.Fatal("a level change did not keep the bucket, gen and index")
	}
	b, a = step("level and info", func(p *wire.Pointer) {
		p.Level = (p.Level + 1) % 8
		p.Info = []byte("os=darwin")
	})
	if a.bucket != b.bucket || a.gen != b.gen+1 || rowIndex(&a) != nil {
		t.Fatal("a level and info change did not keep the bucket under a new gen")
	}
}

// sortedCopy returns ps in ascending ID order.
func sortedCopy(ps []wire.Pointer) []wire.Pointer {
	out := slices.Clone(ps)
	slices.SortFunc(out, func(a, b wire.Pointer) int { return a.ID.Compare(b.ID) })
	return out
}

// TestStaleReaderKeepsNewerIndex: once a reader of the newer view has
// published its index into the shared cell, a reader of the older view
// answers from a build of its own and leaves the newer index in place.
func TestStaleReaderKeepsNewerIndex(t *testing.T) {
	s, ps := benchStore(16)
	old, oldPs := s.View(), sortedCopy(ps)
	old.WithField("os=linux")
	up := ps[3]
	up.Info = []byte("os=linux;role=new")
	s.PeerUpdated(ps[3], up)
	ps[3] = up
	nv, newPs := s.View(), sortedCopy(ps)
	if nv.rows[0].bucket != old.rows[0].bucket || nv.rows[0].gen == old.rows[0].gen {
		t.Fatal("an info-only update did not keep its bucket under a new gen")
	}
	checkFieldFamilies(t, nv, newPs, nil, []string{"role=new"})
	x := nv.rows[0].index.Load()
	checkFieldFamilies(t, old, oldPs, nil, []string{"role=new", "os=linux"})
	if nv.rows[0].index.Load() != x {
		t.Fatal("a reader of the older view evicted the newer view's index")
	}
}

// TestSharedBucketReadersRace: readers of the views before and after an
// info-only update share one index cell, build and publish indexes
// concurrently, and each gets its own view's exact answer. Run it under
// -race.
func TestSharedBucketReadersRace(t *testing.T) {
	s, ps := benchStore(16)
	vals := []string{"os=linux", "role=db", "rev=odd", "rev=even"}
	for round := 0; round < 200; round++ {
		old, oldPs := s.View(), sortedCopy(ps)
		j := round % len(ps)
		up := ps[j]
		rev := "even"
		if round%2 == 1 {
			rev = "odd"
		}
		up.Info = []byte(fmt.Sprintf("os=linux;role=db;rev=%s", rev))
		s.PeerUpdated(ps[j], up)
		ps[j] = up
		nv, newPs := s.View(), sortedCopy(ps)
		if nv.rows[0].bucket != old.rows[0].bucket {
			t.Fatal("an info-only update did not keep its bucket")
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			v, vps := old, oldPs
			if g%2 == 1 {
				v, vps = nv, newPs
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, val := range vals {
					if got, want := v.WithField(val), fieldIDs(vps, val); !sameIDs(got, want) {
						t.Errorf("round %d, epoch %d: WithField(%q) got %d entries, scan %d",
							round, v.Epoch(), val, len(got), len(want))
					}
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
	}
}

// fuzzInfos are the infos FuzzStoreDeltas attaches: empty, repeated and
// shared fields, and empty segments.
var fuzzInfos = []string{"", "os=linux", "os=plan9;role=db", "role=db;role=db", "os=linux;;role=edge;", "slot=1;os=linux"}

// FuzzStoreDeltas decodes fuzzer bytes, three an operation, into runs
// of adds and removes (up to 96 entries each, so a few runs cross the
// split and merge points) and single info, level and address updates
// (through PeerUpdated or an add of a present ID). After each operation
// the view must equal a flat model, each row's level range must be its
// entries' own (checkBuckets), every index of a row's own generation must equal a fresh
// build, and field queries on the view before and after the operation —
// which share every untouched bucket — must match scans of the model.
func FuzzStoreDeltas(f *testing.F) {
	f.Add([]byte{0, 0, 95, 0, 1, 95, 0, 2, 95, 1, 3, 1, 2, 4, 5, 3, 5, 0, 9, 6, 2, 4, 0, 95, 4, 7, 95, 4, 1, 40})
	f.Add([]byte{0, 3, 60, 0, 4, 60, 0, 5, 60, 0, 6, 60, 0, 7, 60, 1, 9, 2, 10, 9, 4, 1, 9, 5, 3, 9, 0, 4, 0, 95, 4, 0, 95, 4, 0, 80, 2, 1, 3, 1, 1, 1})
	f.Add([]byte{0, 0, 3, 1, 0, 1, 1, 0, 2, 2, 0, 5, 3, 1, 1, 9, 2, 0, 4, 0, 0, 4, 0, 0, 4, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewStore(nil)
		sh := &shadow{}
		next := 0
		for ops := 0; len(data) >= 3 && ops < 200; ops++ {
			op, a, b := data[0], int(data[1]), int(data[2])
			data = data[3:]
			prev, prevPs := s.View(), slices.Clone(sh.ps)
			switch kind := op % 5; {
			case kind == 0:
				for k := 0; k <= b%96; k++ {
					p := ptr(fmt.Sprintf("fz-%d", next), (a+k)%6, fuzzInfos[(a+k)%len(fuzzInfos)])
					next++
					s.PeerAdded(p)
					sh.upsert(p)
				}
			case kind == 4:
				for k := 0; k <= b%96 && len(sh.ps) > 0; k++ {
					p := sh.ps[a%len(sh.ps)]
					s.PeerRemoved(p, core.RemoveStale)
					sh.remove(p.ID)
				}
			case len(sh.ps) > 0:
				p := sh.ps[(a<<8|b)%len(sh.ps)]
				up := p
				switch kind {
				case 1:
					up.Info = []byte(fuzzInfos[b%len(fuzzInfos)])
				case 2:
					up.Level = uint8(b % 6)
				case 3:
					up.Addr ^= wire.Addr(b + 1)
				}
				if op&8 != 0 {
					s.PeerAdded(up)
				} else {
					s.PeerUpdated(p, up)
				}
				sh.upsert(up)
			}
			v := s.View()
			if err := s.CheckAgainst(sh.ps); err != nil {
				t.Fatalf("op %d: %v", ops, err)
			}
			checkBuckets(t, v)
			checkFieldFamilies(t, v, sh.ps, nil, []string{"os=linux", "role=db"})
			checkFieldFamilies(t, prev, prevPs, nil, []string{"os=linux", "role=db"})
			for _, r := range v.rows {
				if x := rowIndex(&r); x != nil && !x.equal(buildFieldIndex(r.ents)) {
					t.Fatalf("op %d: an index of its row's gen differs from a fresh build", ops)
				}
			}
		}
	})
}
