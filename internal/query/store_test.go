package query

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"peerwindow/internal/core"
	"peerwindow/internal/nodeid"
	"peerwindow/internal/wire"
	"peerwindow/internal/xrand"
)

// ptr fabricates a deterministic pointer from a label: the ID is the
// label's hash, so distinct labels give distinct, uniformly spread IDs.
func ptr(label string, level int, info string) wire.Pointer {
	var b []byte
	if info != "" {
		b = []byte(info)
	}
	return wire.Pointer{
		ID:    nodeid.HashString(label),
		Addr:  wire.Addr(1000 + uint32(len(label))),
		Level: uint8(level),
		Info:  b,
	}
}

// shadow is the naive reference the store is checked against: a plain
// ID-sorted pointer slice mutated alongside every DeltaSink call.
type shadow struct {
	ps []wire.Pointer
}

func (s *shadow) upsert(p wire.Pointer) {
	i := sort.Search(len(s.ps), func(i int) bool { return !s.ps[i].ID.Less(p.ID) })
	if i < len(s.ps) && s.ps[i].ID == p.ID {
		s.ps[i] = p
		return
	}
	s.ps = append(s.ps, wire.Pointer{})
	copy(s.ps[i+1:], s.ps[i:])
	s.ps[i] = p
}

func (s *shadow) remove(id nodeid.ID) {
	i := sort.Search(len(s.ps), func(i int) bool { return !s.ps[i].ID.Less(id) })
	if i < len(s.ps) && s.ps[i].ID == id {
		s.ps = append(s.ps[:i], s.ps[i+1:]...)
	}
}

func TestStoreBasicLifecycle(t *testing.T) {
	s := NewStore(nil)
	if v := s.View(); v.Len() != 0 || v.Epoch() != 0 {
		t.Fatalf("fresh store: len=%d epoch=%d", v.Len(), v.Epoch())
	}

	a := ptr("a", 2, "os=linux;role=db")
	b := ptr("b", 0, "os=plan9")
	s.PeerAdded(a)
	s.PeerAdded(b)
	v := s.View()
	if v.Len() != 2 || v.Epoch() != 2 {
		t.Fatalf("after two adds: len=%d epoch=%d", v.Len(), v.Epoch())
	}
	if e, ok := v.Get(a.ID); !ok || e.Level != 2 || e.Info() != "os=linux;role=db" {
		t.Fatalf("Get(a) = %+v, %v", e, ok)
	}
	if v.MinLevel() != 0 {
		t.Fatalf("MinLevel = %d, want 0", v.MinLevel())
	}

	// Update changes level and info; the view held before must not move.
	held := s.View()
	heldDigest := held.Digest()
	a2 := a
	a2.Level = 5
	a2.Info = []byte("os=linux;role=cache")
	s.PeerUpdated(a, a2)
	if s.View().Len() != 2 {
		t.Fatalf("update changed cardinality: %d", s.View().Len())
	}
	if e, _ := s.View().Get(a.ID); e.Level != 5 || e.Info() != "os=linux;role=cache" {
		t.Fatalf("update not applied: %+v", e)
	}
	if held.Digest() != heldDigest {
		t.Fatal("held view mutated by a later update")
	}
	if e, _ := held.Get(a.ID); e.Level != 2 {
		t.Fatalf("held view sees the update: level %d", e.Level)
	}

	s.PeerRemoved(a2, core.RemoveLeave)
	if v := s.View(); v.Len() != 1 {
		t.Fatalf("after remove: len=%d", v.Len())
	}
	if _, ok := s.View().Get(a.ID); ok {
		t.Fatal("removed entry still found")
	}
}

func TestStoreDegenerateDeltas(t *testing.T) {
	s := NewStore(nil)
	a := ptr("a", 1, "")

	// Removing an absent ID is a no-op: no epoch advance, no counter.
	s.PeerRemoved(a, core.RemoveStale)
	if e := s.View().Epoch(); e != 0 {
		t.Fatalf("remove of absent advanced epoch to %d", e)
	}

	// Updating an absent ID degrades to an add.
	s.PeerUpdated(wire.Pointer{}, a)
	if v := s.View(); v.Len() != 1 || v.Epoch() != 1 {
		t.Fatalf("update-as-add: len=%d epoch=%d", v.Len(), v.Epoch())
	}

	// Adding a present ID degrades to an update.
	a2 := a
	a2.Level = 3
	s.PeerAdded(a2)
	if v := s.View(); v.Len() != 1 {
		t.Fatalf("add-as-update grew the view: %d", v.Len())
	}
	if e, _ := s.View().Get(a.ID); e.Level != 3 {
		t.Fatalf("add-as-update not applied: level %d", e.Level)
	}
}

// TestStoreBucketShapeUnderGrowthAndShrink drives the store through a
// grow-then-shrink cycle and checks the bucket discipline: every bucket
// within [1, maxBucket] entries, splits keep order, and removal-heavy
// phases merge buckets so the count stays proportional to the population.
func TestStoreBucketShapeUnderGrowthAndShrink(t *testing.T) {
	s := NewStore(nil)
	sh := &shadow{}
	const n = 2000
	for i := 0; i < n; i++ {
		p := ptr(fmt.Sprintf("node-%d", i), i%7, fmt.Sprintf("seq=%d", i))
		s.PeerAdded(p)
		sh.upsert(p)
	}
	v := s.View()
	if len(v.rows) < 2 {
		t.Fatalf("%d entries in %d buckets: splits never happened", n, len(v.rows))
	}
	checkBuckets(t, v)
	if err := s.CheckAgainst(sh.ps); err != nil {
		t.Fatal(err)
	}

	// Remove 95% in hash order (which is ID-scattered), forcing merges.
	for i := 0; i < n; i++ {
		if i%20 == 0 {
			continue
		}
		p := ptr(fmt.Sprintf("node-%d", i), 0, "")
		s.PeerRemoved(p, core.RemoveExpired)
		sh.remove(p.ID)
	}
	v = s.View()
	if v.Len() != len(sh.ps) {
		t.Fatalf("after shrink: view %d, shadow %d", v.Len(), len(sh.ps))
	}
	checkBuckets(t, v)
	// 100 survivors must not be smeared across hundreds of stale buckets.
	if max := v.Len()/minBucket + 2; len(v.rows) > max {
		t.Fatalf("%d entries in %d buckets: merges are not keeping up", v.Len(), len(v.rows))
	}
	if err := s.CheckAgainst(sh.ps); err != nil {
		t.Fatal(err)
	}
}

// checkBuckets asserts the structural invariants of one view: bucket
// sizes within bounds, global ID order across buckets, starts offsets
// consistent, each row's level range exactly its entries' smallest and
// largest level, and CountAtLevel and MinLevel matching the entries.
func checkBuckets(t *testing.T, v *View) {
	t.Helper()
	total := 0
	var prev nodeid.ID
	first := true
	var levels [256]int
	minLevel := -1
	for bi, b := range v.rows {
		if len(b.ents) == 0 || len(b.ents) > maxBucket {
			t.Fatalf("bucket %d has %d entries", bi, len(b.ents))
		}
		if int(b.start) != total {
			t.Fatalf("bucket %d starts at %d, want %d", bi, b.start, total)
		}
		lo, hi := b.ents[0].Level, b.ents[0].Level
		for _, e := range b.ents {
			if !first && !prev.Less(e.ID) {
				t.Fatalf("IDs out of order at bucket %d", bi)
			}
			prev, first = e.ID, false
			levels[e.Level]++
			if minLevel < 0 || int(e.Level) < minLevel {
				minLevel = int(e.Level)
			}
			lo, hi = min(lo, e.Level), max(hi, e.Level)
		}
		if b.minLevel != lo || b.maxLevel != hi {
			t.Fatalf("bucket %d has level range [%d, %d], entries span [%d, %d]",
				bi, b.minLevel, b.maxLevel, lo, hi)
		}
		total += len(b.ents)
	}
	if total != v.total {
		t.Fatalf("buckets hold %d entries, view says %d", total, v.total)
	}
	for l, n := range levels {
		if got := v.CountAtLevel(l); got != n {
			t.Fatalf("CountAtLevel(%d) = %d, entries hold %d", l, got, n)
		}
	}
	if got := v.MinLevel(); got != minLevel {
		t.Fatalf("MinLevel() = %d, entries say %d", got, minLevel)
	}
}

// populateRandom fills a store and its shadow with n random-info entries.
func populateRandom(s *Store, sh *shadow, n int, seed uint64) {
	rng := xrand.New(seed)
	oses := []string{"linux", "plan9", "openbsd", "darwin"}
	roles := []string{"db", "cache", "edge", "archive", ""}
	for i := 0; i < n; i++ {
		info := "os=" + oses[rng.Intn(len(oses))]
		if r := roles[rng.Intn(len(roles))]; r != "" {
			info += ";role=" + r
		}
		if rng.Intn(4) == 0 {
			info = "" // some peers attach nothing
		}
		p := ptr(fmt.Sprintf("rnd-%d-%d", seed, i), rng.Intn(6), info)
		s.PeerAdded(p)
		sh.upsert(p)
	}
}

// TestQueryFamiliesMatchNaiveScan is the central equivalence property:
// every indexed query must be bit-identical to the obvious linear scan
// over the same snapshot.
func TestQueryFamiliesMatchNaiveScan(t *testing.T) {
	s := NewStore(nil)
	sh := &shadow{}
	populateRandom(s, sh, 700, 11)
	v := s.View()
	if err := s.CheckAgainst(sh.ps); err != nil {
		t.Fatal(err)
	}

	// InfoContains: substrings inside one field, substrings crossing a
	// ';', the empty substring. WithField: exact ';'-separated fields only.
	checkFieldFamilies(t, v, sh.ps,
		[]string{"os=linux", "role=", "x;role", "linux;role=db", "", "nosuch", "=", ";"},
		[]string{"os=linux", "role=db", "os=", "nosuch", ""})

	// Strongest: reference is a stable sort by level over the ID order.
	for _, k := range []int{0, 1, 5, 100, 700, 9999} {
		ref := append([]wire.Pointer(nil), sh.ps...)
		sort.SliceStable(ref, func(i, j int) bool { return ref[i].Level < ref[j].Level })
		if k < len(ref) {
			ref = ref[:k]
		}
		got := v.Strongest(k)
		if len(got) != len(ref) {
			t.Fatalf("Strongest(%d): %d entries, want %d", k, len(got), len(ref))
		}
		for i := range got {
			if got[i].ID != ref[i].ID || got[i].Level != ref[i].Level {
				t.Fatalf("Strongest(%d)[%d]: %v/%d, want %v/%d",
					k, i, got[i].ID, got[i].Level, ref[i].ID, ref[i].Level)
			}
		}
	}

	// MinLevel / CountAtLevel vs histogram of the shadow.
	var hist [64]int
	minL := -1
	for _, p := range sh.ps {
		hist[p.Level]++
		if minL < 0 || int(p.Level) < minL {
			minL = int(p.Level)
		}
	}
	if v.MinLevel() != minL {
		t.Fatalf("MinLevel = %d, want %d", v.MinLevel(), minL)
	}
	for l := 0; l < 10; l++ {
		if v.CountAtLevel(l) != hist[l] {
			t.Fatalf("CountAtLevel(%d) = %d, want %d", l, v.CountAtLevel(l), hist[l])
		}
	}

	// TopK by a score derived from the info length, ties broken by ID
	// order — reference computed by full sort.
	score := func(e Entry) (float64, bool) {
		if e.Info() == "" {
			return 0, false
		}
		return float64(len(e.Info())), true
	}
	type scored struct {
		id  nodeid.ID
		s   float64
		idx int
	}
	var ref []scored
	for i, p := range sh.ps {
		if len(p.Info) == 0 {
			continue
		}
		ref = append(ref, scored{p.ID, float64(len(p.Info)), i})
	}
	sort.SliceStable(ref, func(i, j int) bool {
		if ref[i].s != ref[j].s {
			return ref[i].s > ref[j].s
		}
		return ref[i].idx < ref[j].idx
	})
	for _, k := range []int{0, 1, 7, 50, 10000} {
		want := ref
		if k < len(want) {
			want = want[:k]
		}
		got := v.TopK(k, score)
		if len(got) != len(want) {
			t.Fatalf("TopK(%d): %d entries, want %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].id {
				t.Fatalf("TopK(%d)[%d] = %v, want %v", k, i, got[i].ID, want[i].id)
			}
		}
	}

	// Sample must select exactly SampleIndexes' positions in the ID order.
	for _, k := range []int{1, 3, 17} {
		for seed := uint64(0); seed < 3; seed++ {
			got := v.Sample(k, seed)
			idx := SampleIndexes(v.Len(), k, seed)
			if len(got) != len(idx) {
				t.Fatalf("Sample(%d, %d): %d entries, want %d", k, seed, len(got), len(idx))
			}
			for i, ix := range idx {
				if got[i].ID != sh.ps[ix].ID {
					t.Fatalf("Sample(%d, %d)[%d] = %v, want index %d = %v",
						k, seed, i, got[i].ID, ix, sh.ps[ix].ID)
				}
			}
		}
	}

	// CountWhere vs manual count.
	wantCount := 0
	for _, p := range sh.ps {
		if p.Level == 2 {
			wantCount++
		}
	}
	if got := v.CountWhere(func(e Entry) bool { return e.Level == 2 }); got != wantCount {
		t.Fatalf("CountWhere = %d, want %d", got, wantCount)
	}
}

// checkFieldFamilies requires InfoContains and WithField on v to return
// exactly what naive scans of ps, the same window as an ID-sorted pointer
// list, return.
func checkFieldFamilies(t *testing.T, v *View, ps []wire.Pointer, substrs, fields []string) {
	t.Helper()
	for _, sub := range substrs {
		var want []nodeid.ID
		for _, p := range ps {
			if strings.Contains(string(p.Info), sub) {
				want = append(want, p.ID)
			}
		}
		if got := v.InfoContains(sub); !sameIDs(got, want) {
			t.Fatalf("epoch %d: InfoContains(%q): indexed %d, scan %d", v.Epoch(), sub, len(got), len(want))
		}
	}
	for _, val := range fields {
		want := fieldIDs(ps, val)
		if got := v.WithField(val); !sameIDs(got, want) {
			t.Fatalf("epoch %d: WithField(%q): indexed %d, scan %d", v.Epoch(), val, len(got), len(want))
		}
	}
}

// fieldIDs returns the IDs of ps, an ID-sorted pointer list, whose info
// carries the ';'-field val: the naive scan WithField must agree with.
// Empty segments are no fields, so no entry carries "".
func fieldIDs(ps []wire.Pointer, val string) []nodeid.ID {
	var ids []nodeid.ID
	for _, p := range ps {
		if val != "" && slices.Contains(strings.Split(string(p.Info), ";"), val) {
			ids = append(ids, p.ID)
		}
	}
	return ids
}

// sameIDs reports whether got lists exactly the entries with IDs want.
func sameIDs(got []Entry, want []nodeid.ID) bool {
	return slices.EqualFunc(got, want, func(e Entry, id nodeid.ID) bool { return e.ID == id })
}

// rowVersion identifies the entries a row's field index describes: its
// bucket's cell, and the generation of its infos.
type rowVersion struct {
	b   *bucket
	gen uint64
}

// rowIndex returns the index a row trusts: its bucket's published index
// if that is of the row's generation, else nil.
func rowIndex(r *row) *fieldIndex {
	if x := r.index.Load(); x != nil && x.gen == r.gen {
		return x
	}
	return nil
}

// TestFieldIndexMatchesFreshBuildUnderMutation drives random level-only
// updates, info changes, adds (some of present IDs) and removes through a
// grow phase past the split point and a shrink phase below the merge
// point, querying every view so that field indexes are published. After
// each step every published index must equal a fresh build of its bucket,
// a row version new to the view must hold no index, an update that kept
// the entry's info must keep its row's bucket and generation (and so the
// index), and the field families must match the naive scan. A row version
// is new to the view unless the previous view has a row over the same
// bucket at the same generation, and a cell holding another generation's
// index counts as no index.
func TestFieldIndexMatchesFreshBuildUnderMutation(t *testing.T) {
	s := NewStore(nil)
	sh := &shadow{}
	rng := xrand.New(29)
	infos := []string{"", "os=linux", "os=plan9;role=db", "role=db;role=db", "os=linux;;role=edge;", "slot=1;slot=12"}
	info := func() string { return infos[rng.Intn(len(infos))] }
	next, reused := 0, 0
	for step := 0; step < 2400; step++ {
		// Out of ten draws: grow with 1 remove, 4 updates and 5 adds, then
		// shrink with 7 removes, 2 updates and 1 add.
		removes, updates := 1, 5
		if step >= 1200 {
			removes, updates = 7, 9
		}
		prev := s.View()
		kept := false // the step replaced an entry and kept its info bytes
		var id nodeid.ID
		switch r := rng.Intn(10); {
		case len(sh.ps) > 0 && r < removes:
			p := sh.ps[rng.Intn(len(sh.ps))]
			s.PeerRemoved(p, core.RemoveStale)
			sh.remove(p.ID)
		case len(sh.ps) > 0 && r < updates:
			p := sh.ps[rng.Intn(len(sh.ps))]
			up := p
			up.Level = uint8(rng.Intn(6))
			if rng.Intn(3) == 0 {
				up.Addr++
			}
			if rng.Intn(4) == 0 {
				up.Info = []byte(info())
			}
			kept = string(up.Info) == string(p.Info)
			if rng.Intn(2) == 0 {
				s.PeerUpdated(p, up)
			} else {
				s.PeerAdded(up) // an add of a present ID is an update
			}
			sh.upsert(up)
			id = p.ID
		default:
			p := ptr(fmt.Sprintf("fi-%d", next), rng.Intn(6), info())
			next++
			s.PeerAdded(p)
			sh.upsert(p)
		}
		v := s.View()
		old := make(map[rowVersion]bool, len(prev.rows))
		for _, r := range prev.rows {
			old[rowVersion{r.bucket, r.gen}] = true
		}
		for _, r := range v.rows {
			x := rowIndex(&r)
			if x != nil && !x.equal(buildFieldIndex(r.ents)) {
				t.Fatalf("step %d: published field index differs from a fresh build", step)
			}
			if x != nil && !old[rowVersion{r.bucket, r.gen}] {
				t.Fatalf("step %d: a row version new to the view holds index %p", step, x)
			}
		}
		if kept {
			pr, r := &prev.rows[prev.rowFor(id)], &v.rows[v.rowFor(id)]
			if r.bucket != pr.bucket || r.gen != pr.gen {
				t.Fatalf("step %d: an update that kept the info did not keep its bucket and gen", step)
			}
			if rowIndex(r) != nil {
				reused++
			}
		}
		checkFieldFamilies(t, v, sh.ps,
			[]string{"linux", "role=db", "b;r"},
			[]string{"os=linux", "role=db", "slot=1"})
		if step == 1199 && len(v.rows) < 2 {
			t.Fatalf("grow phase ended with %d entries in %d buckets: no splits", v.Len(), len(v.rows))
		}
	}
	if v := s.View(); v.Len() >= minBucket {
		t.Fatalf("shrink phase ended with %d entries, not below the merge point %d", v.Len(), minBucket)
	}
	if reused == 0 {
		t.Fatal("no update ever kept its predecessor's field index")
	}
	t.Logf("%d updates kept their predecessor's field index", reused)
}

// TestViewImmutableAcrossMutations holds every intermediate view of a
// mutation sequence and re-checks all their digests at the end: COW must
// never touch a published snapshot.
func TestViewImmutableAcrossMutations(t *testing.T) {
	s := NewStore(nil)
	type held struct {
		v *View
		d uint64
		n int
	}
	var views []held
	rng := xrand.New(99)
	var present []wire.Pointer
	for i := 0; i < 400; i++ {
		if len(present) > 0 && rng.Intn(3) == 0 {
			j := rng.Intn(len(present))
			s.PeerRemoved(present[j], core.RemoveStale)
			present = append(present[:j], present[j+1:]...)
		} else {
			p := ptr(fmt.Sprintf("imm-%d", i), rng.Intn(4), fmt.Sprintf("i=%d", i))
			s.PeerAdded(p)
			present = append(present, p)
		}
		v := s.View()
		views = append(views, held{v, v.Digest(), v.Len()})
	}
	for i, h := range views {
		if h.v.Digest() != h.d || h.v.Len() != h.n {
			t.Fatalf("view %d (epoch %d) changed after publication", i, h.v.Epoch())
		}
	}
	// Epochs must be strictly increasing by one per mutation.
	for i := 1; i < len(views); i++ {
		if views[i].v.Epoch() != views[i-1].v.Epoch()+1 {
			t.Fatalf("epoch gap: %d then %d", views[i-1].v.Epoch(), views[i].v.Epoch())
		}
	}
}

// applyDelta folds one delta into an ID-sorted pointer slice — the
// replay rule documented for subscribers.
func applyDelta(sh *shadow, d Delta) {
	switch d.Kind {
	case DeltaAdd, DeltaUpdate:
		sh.upsert(d.Entry.Pointer())
	case DeltaRemove:
		sh.remove(d.Entry.ID)
	}
}

// TestSubscriptionReplayMatchesFinalView checks the gap-free contract:
// baseline + every delta with Epoch > baseline.Epoch() must reconstruct
// the final view exactly.
func TestSubscriptionReplayMatchesFinalView(t *testing.T) {
	s := NewStore(nil)
	// Pre-subscription history the subscriber never sees directly.
	for i := 0; i < 120; i++ {
		s.PeerAdded(ptr(fmt.Sprintf("pre-%d", i), i%3, fmt.Sprintf("n=%d", i)))
	}

	sub := s.Subscribe(4096, nil)
	defer sub.Close()
	base := sub.Baseline()

	rng := xrand.New(5)
	var present []wire.Pointer
	base.Each(func(e Entry) bool { present = append(present, e.Pointer()); return true })
	for i := 0; i < 300; i++ {
		switch {
		case len(present) > 0 && rng.Intn(3) == 0:
			j := rng.Intn(len(present))
			s.PeerRemoved(present[j], core.RemoveLeave)
			present = append(present[:j], present[j+1:]...)
		case len(present) > 0 && rng.Intn(3) == 0:
			j := rng.Intn(len(present))
			p := present[j]
			up := p
			up.Level = uint8(rng.Intn(6))
			up.Info = []byte(fmt.Sprintf("rev=%d", i))
			s.PeerUpdated(p, up)
			present[j] = up
		default:
			p := ptr(fmt.Sprintf("live-%d", i), rng.Intn(6), fmt.Sprintf("n=%d", i))
			s.PeerAdded(p)
			present = append(present, p)
		}
	}
	if sub.Dropped() != 0 {
		t.Fatalf("dropped %d deltas with a roomy buffer", sub.Dropped())
	}

	// Replay: baseline + in-order deltas past the baseline epoch.
	replay := &shadow{}
	base.Each(func(e Entry) bool { replay.upsert(e.Pointer()); return true })
	lastEpoch := base.Epoch()
	for len(sub.C()) > 0 {
		d := <-sub.C()
		if d.Epoch <= base.Epoch() {
			continue
		}
		if d.Epoch != lastEpoch+1 {
			t.Fatalf("delta stream epoch gap: %d then %d", lastEpoch, d.Epoch)
		}
		lastEpoch = d.Epoch
		applyDelta(replay, d)
	}
	final := s.View()
	if lastEpoch != final.Epoch() {
		t.Fatalf("replay ends at epoch %d, view is at %d", lastEpoch, final.Epoch())
	}
	if err := s.CheckAgainst(replay.ps); err != nil {
		t.Fatalf("replayed state diverges: %v", err)
	}
	if sub.Delivered() == 0 {
		t.Fatal("no deltas delivered")
	}
}

// TestSubscriptionDropAccounting overflows a tiny buffer and checks the
// protocol path never blocks: excess deltas are counted, not delivered.
func TestSubscriptionDropAccounting(t *testing.T) {
	s := NewStore(nil)
	sub := s.Subscribe(4, nil)
	defer sub.Close()
	for i := 0; i < 50; i++ {
		s.PeerAdded(ptr(fmt.Sprintf("d-%d", i), 0, ""))
	}
	if sub.Delivered() != 4 {
		t.Fatalf("delivered %d, want exactly the buffer capacity 4", sub.Delivered())
	}
	if sub.Dropped() != 46 {
		t.Fatalf("dropped %d, want 46", sub.Dropped())
	}
	snap := s.MetricsSnapshot()
	if snap.Counters[MetricQuerySubsDropped] != 46 {
		t.Fatalf("drop counter = %d, want 46", snap.Counters[MetricQuerySubsDropped])
	}
}

// TestSubscriptionFilterAndClose checks filtered delivery and that a
// closed subscription stops receiving without disturbing others.
func TestSubscriptionFilterAndClose(t *testing.T) {
	s := NewStore(nil)
	adds := s.Subscribe(64, func(d Delta) bool { return d.Kind == DeltaAdd })
	all := s.Subscribe(64, nil)

	a := ptr("fa", 1, "x=1")
	s.PeerAdded(a)
	a2 := a
	a2.Info = []byte("x=2")
	s.PeerUpdated(a, a2)
	s.PeerRemoved(a2, core.RemoveLeave)

	if got := len(adds.C()); got != 1 {
		t.Fatalf("filtered sub got %d deltas, want 1", got)
	}
	if got := len(all.C()); got != 3 {
		t.Fatalf("unfiltered sub got %d deltas, want 3", got)
	}

	before := all.Delivered()
	adds.Close()
	if !adds.Closed() {
		t.Fatal("Close did not mark the sub closed")
	}
	adds.Close() // idempotent
	s.PeerAdded(ptr("fb", 1, ""))
	if all.Delivered() != before+1 {
		t.Fatal("surviving sub missed a delta after the other closed")
	}
	if adds.Delivered() != 1 {
		t.Fatal("closed sub kept receiving")
	}
	all.Close()
}

// TestDeltaKindStrings pins the wire-visible kind names.
func TestDeltaKindStrings(t *testing.T) {
	if DeltaAdd.String() != "add" || DeltaUpdate.String() != "update" || DeltaRemove.String() != "remove" {
		t.Fatal("DeltaKind strings drifted")
	}
}
