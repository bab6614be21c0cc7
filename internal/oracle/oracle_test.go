package oracle

import (
	"testing"

	"peerwindow/internal/nodeid"
	"peerwindow/internal/wire"
	"peerwindow/internal/xrand"
)

func ptr(bits string, level int) wire.Pointer {
	id, err := nodeid.FromBitString(bits)
	if err != nil {
		panic(err)
	}
	return wire.Pointer{Addr: wire.Addr(1 + id.Hi>>40), ID: id, Level: uint8(level)}
}

func TestRegistryJoinLeave(t *testing.T) {
	r := NewRegistry()
	a := ptr("0001", 0)
	b := ptr("1001", 1)
	r.Join(a)
	r.Join(b)
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	// Re-join updates in place.
	a2 := a
	a2.Level = 2
	r.Join(a2)
	if r.Len() != 2 {
		t.Fatal("duplicate join duplicated the entry")
	}
	got, ok := r.Lookup(a.ID)
	if !ok || got.Level != 2 {
		t.Fatalf("lookup after rejoin: %+v ok=%v", got, ok)
	}
	if !r.Leave(a.ID) {
		t.Fatal("leave of present member failed")
	}
	if r.Leave(a.ID) {
		t.Fatal("double leave succeeded")
	}
	if r.Len() != 1 {
		t.Fatalf("Len after leave = %d", r.Len())
	}
	if _, ok := r.Lookup(a.ID); ok {
		t.Fatal("lookup of departed member succeeded")
	}
}

func TestRegistryUpdate(t *testing.T) {
	r := NewRegistry()
	a := ptr("0101", 1)
	r.Join(a)
	a.Level = 3
	if !r.Update(a) {
		t.Fatal("update failed")
	}
	got, _ := r.Lookup(a.ID)
	if got.Level != 3 {
		t.Fatal("update not applied")
	}
	if r.Update(ptr("1111", 0)) {
		t.Fatal("update of absent member succeeded")
	}
}

func TestRegistryInPrefixMatchesBruteForce(t *testing.T) {
	r := NewRegistry()
	rng := xrand.New(3)
	var all []wire.Pointer
	for i := 0; i < 300; i++ {
		p := wire.Pointer{
			Addr: wire.Addr(i + 1),
			ID:   nodeid.ID{Hi: rng.Uint64(), Lo: rng.Uint64()},
		}
		r.Join(p)
		all = append(all, p)
	}
	for l := 0; l <= 10; l++ {
		probe := all[l*7%len(all)].ID
		e := nodeid.EigenstringOf(probe, l)
		want := 0
		for _, p := range all {
			if e.Contains(p.ID) {
				want++
			}
		}
		if got := len(r.InPrefix(e)); got != want {
			t.Fatalf("level %d: InPrefix holds %d want %d", l, got, want)
		}
	}
}

func TestRegistryIndexSurvivesChurn(t *testing.T) {
	r := NewRegistry()
	rng := xrand.New(4)
	var live []wire.Pointer
	for i := 0; i < 2000; i++ {
		if len(live) == 0 || rng.Float64() < 0.6 {
			p := wire.Pointer{
				Addr: wire.Addr(i + 1),
				ID:   nodeid.ID{Hi: rng.Uint64(), Lo: rng.Uint64()},
			}
			r.Join(p)
			live = append(live, p)
		} else {
			k := rng.Intn(len(live))
			if !r.Leave(live[k].ID) {
				t.Fatal("leave of live member failed")
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	if r.Len() != len(live) {
		t.Fatalf("registry %d vs live %d", r.Len(), len(live))
	}
	for _, p := range live {
		got, ok := r.Lookup(p.ID)
		if !ok || got.Addr != p.Addr {
			t.Fatal("index out of sync after churn")
		}
	}
}

func TestAudienceSize(t *testing.T) {
	r := NewRegistry()
	// Audience of 1011: eigenstrings ε, 1, 10, 101, … (figure 2).
	r.Join(ptr("0000", 0)) // blank: in audience
	r.Join(ptr("1000", 1)) // "1": in audience
	r.Join(ptr("1010", 2)) // "10": in audience
	r.Join(ptr("1110", 2)) // "11": NOT
	r.Join(ptr("0100", 1)) // "0": NOT
	subject, _ := nodeid.FromBitString("1011")
	got := r.Audience(subject)
	if len(got) != 3 {
		t.Fatalf("audience size = %d want 3", len(got))
	}
	for i, want := range []string{"0000", "1000", "1010"} {
		if got[i].ID != ptr(want, 0).ID {
			t.Fatalf("audience[%d] = %v want %s", i, got[i].ID, want)
		}
	}
}

func TestAuditCategorisesErrors(t *testing.T) {
	r := NewRegistry()
	a := ptr("0001", 0)
	b := ptr("0010", 1)
	c := ptr("0100", 0)
	r.Join(a)
	r.Join(b)
	r.Join(c)
	self := ptr("0111", 1)
	r.Join(self)
	e := nodeid.EigenstringOf(self.ID, 1) // "0": all four
	// Actual list: a correct, b with wrong level, c missing, plus one
	// stale entry that already left.
	stale := ptr("0110", 0)
	bOld := b
	bOld.Level = 7
	actual := []wire.Pointer{a, bOld, stale}
	errs := r.Audit(self.ID, e, actual)
	if errs.Correct != 2 {
		t.Fatalf("Correct = %d want 2", errs.Correct)
	}
	if errs.Absent != 1 {
		t.Fatalf("Absent = %d want 1", errs.Absent)
	}
	if errs.Stale != 1 {
		t.Fatalf("Stale = %d want 1", errs.Stale)
	}
	if errs.LevelMismatch != 1 {
		t.Fatalf("LevelMismatch = %d want 1", errs.LevelMismatch)
	}
	if errs.Total() != 2 {
		t.Fatalf("Total = %d", errs.Total())
	}
	wantRate := 2.0 / 3.0
	if got := errs.Rate(); got != wantRate {
		t.Fatalf("Rate = %g want %g", got, wantRate)
	}
}

func TestAuditSelfExcluded(t *testing.T) {
	r := NewRegistry()
	self := ptr("0001", 0)
	r.Join(self)
	errs := r.Audit(self.ID, nodeid.EigenstringOf(self.ID, 0), nil)
	if errs.Absent != 0 || errs.Correct != 0 {
		t.Fatalf("self should be excluded: %+v", errs)
	}
}

func TestErrorsRateEdgeCases(t *testing.T) {
	if (Errors{}).Rate() != 0 {
		t.Fatal("empty errors should rate 0")
	}
	if (Errors{Stale: 3}).Rate() != 1 {
		t.Fatal("stale-only with empty expectation should rate 1")
	}
}

func TestForEachOrdered(t *testing.T) {
	r := NewRegistry()
	rng := xrand.New(5)
	for i := 0; i < 100; i++ {
		r.Join(wire.Pointer{Addr: wire.Addr(i + 1), ID: nodeid.ID{Hi: rng.Uint64(), Lo: rng.Uint64()}})
	}
	var prev nodeid.ID
	first := true
	r.ForEach(func(p wire.Pointer) {
		if !first && !prev.Less(p.ID) {
			t.Fatal("ForEach out of ID order")
		}
		prev, first = p.ID, false
	})
}
