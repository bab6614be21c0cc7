package sim

import (
	"testing"
	"testing/quick"

	"peerwindow/internal/nodeid"
	"peerwindow/internal/xrand"
)

func TestPrefixCountMatchesBruteForce(t *testing.T) {
	const depth = 12
	pc := newPrefixCount(depth)
	rng := xrand.New(1)
	var ids []nodeid.ID
	for i := 0; i < 500; i++ {
		id := nodeid.ID{Hi: rng.Uint64(), Lo: rng.Uint64()}
		pc.Add(id)
		ids = append(ids, id)
	}
	// Remove a third of them.
	for i := 0; i < len(ids); i += 3 {
		pc.Remove(ids[i])
	}
	alive := make(map[nodeid.ID]bool)
	for i, id := range ids {
		alive[id] = i%3 != 0
	}
	for trial := 0; trial < 200; trial++ {
		probe := ids[rng.Intn(len(ids))]
		l := rng.Intn(depth + 1)
		want := 0
		e := nodeid.EigenstringOf(probe, l)
		for id, ok := range alive {
			if ok && e.Contains(id) {
				want++
			}
		}
		if got := pc.Count(probe, l); got != want {
			t.Fatalf("Count(l=%d) = %d want %d", l, got, want)
		}
	}
	wantTotal := 0
	for _, ok := range alive {
		if ok {
			wantTotal++
		}
	}
	if pc.Total() != wantTotal {
		t.Fatalf("Total = %d want %d", pc.Total(), wantTotal)
	}
}

// A population counted leaf-only and folded must equal the same
// population counted by Add, at every prefix of every level, and take
// Add/Remove afterwards like any other.
func TestPrefixCountFoldMatchesAdd(t *testing.T) {
	const depth = 12
	byAdd, byFold := newPrefixCount(depth), newPrefixCount(depth)
	rng := xrand.New(7)
	var ids []nodeid.ID
	for i := 0; i < 3000; i++ {
		id := nodeid.ID{Hi: rng.Uint64(), Lo: rng.Uint64()}
		ids = append(ids, id)
		byAdd.Add(id)
		byFold.addLeaf(id)
	}
	byFold.fold()
	for i := 0; i < 100; i++ {
		byAdd.Remove(ids[i])
		byFold.Remove(ids[i])
		extra := nodeid.ID{Hi: rng.Uint64(), Lo: rng.Uint64()}
		byAdd.Add(extra)
		byFold.Add(extra)
	}
	if byAdd.Total() != byFold.Total() {
		t.Fatalf("Total: %d by Add, %d by fold", byAdd.Total(), byFold.Total())
	}
	for l := 0; l <= depth; l++ {
		for p := range byAdd.counts[l] {
			if byAdd.counts[l][p] != byFold.counts[l][p] {
				t.Fatalf("level %d prefix %d: %d by Add, %d by fold", l, p, byAdd.counts[l][p], byFold.counts[l][p])
			}
		}
	}
}

// Level arrays appear with their first node; a level nobody runs at has an
// audience of zero.
func TestLevelPrefixCountAllocatesLevelsOnDemand(t *testing.T) {
	lc := newLevelPrefixCount(maxPrefixDepth)
	id := nodeid.ID{Hi: 0xABCD << 48}
	if got := lc.Audience(id, maxPrefixDepth); got != 0 {
		t.Fatalf("audience at an unpopulated level = %d", got)
	}
	lc.Add(id, 3)
	lc.Add(id, 3)
	lc.Remove(id, 3)
	if got := lc.Audience(id, 3); got != 1 || lc.LevelCount(3) != 1 {
		t.Fatalf("audience %d, level count %d, want 1 and 1", got, lc.LevelCount(3))
	}
	for l, c := range lc.counts {
		if (c != nil) != (l == 3) {
			t.Fatalf("level %d array allocated = %v", l, c != nil)
		}
	}
}

func TestPrefixCountDepthClamp(t *testing.T) {
	pc := newPrefixCount(4)
	id := nodeid.ID{Hi: ^uint64(0)}
	pc.Add(id)
	// Queries beyond depth clamp to depth.
	if pc.Count(id, 10) != pc.Count(id, 4) {
		t.Fatal("deep query did not clamp")
	}
}

func TestPrefixCountDepthValidation(t *testing.T) {
	for _, d := range []int{-1, maxPrefixDepth + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("depth %d did not panic", d)
				}
			}()
			newPrefixCount(d)
		}()
	}
}

func TestBucketMSBAligned(t *testing.T) {
	// bucket(id, l) must be the top l bits: for id with only the MSB
	// set, bucket at any l>0 is 2^(l-1).
	id := nodeid.ID{Hi: 1 << 63}
	for l := 1; l <= 10; l++ {
		if got := bucket(id, l); got != 1<<uint(l-1) {
			t.Fatalf("bucket(msb, %d) = %d want %d", l, got, 1<<uint(l-1))
		}
	}
	if bucket(id, 0) != 0 {
		t.Fatal("bucket at depth 0 must be 0")
	}
}

func TestLevelPrefixCountAudience(t *testing.T) {
	lc := newLevelPrefixCount(10)
	// Figure 2: audience of subject 1011… consists of the blank, "1",
	// "10", "101" eigenstring holders.
	mk := func(bits string) nodeid.ID {
		id, err := nodeid.FromBitString(bits)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	lc.Add(mk("0000"), 0) // blank eigenstring: audience member
	lc.Add(mk("1100"), 1) // "1": member
	lc.Add(mk("1000"), 2) // "10": member
	lc.Add(mk("1110"), 2) // "11": not
	lc.Add(mk("0100"), 1) // "0": not
	subject := mk("1011")
	if got := lc.Audience(subject, 0); got != 1 {
		t.Fatalf("A_0 = %d", got)
	}
	if got := lc.Audience(subject, 1); got != 1 {
		t.Fatalf("A_1 = %d", got)
	}
	if got := lc.Audience(subject, 2); got != 1 {
		t.Fatalf("A_2 = %d", got)
	}
	if got := lc.LevelCount(2); got != 2 {
		t.Fatalf("LevelCount(2) = %d", got)
	}
	lc.Remove(mk("1000"), 2)
	if got := lc.Audience(subject, 2); got != 0 {
		t.Fatalf("A_2 after removal = %d", got)
	}
}

func TestPrefixCountAddRemoveInverse(t *testing.T) {
	f := func(hi, lo uint64, l8 uint8) bool {
		pc := newPrefixCount(10)
		id := nodeid.ID{Hi: hi, Lo: lo}
		pc.Add(id)
		pc.Remove(id)
		l := int(l8) % 11
		return pc.Count(id, l) == 0 && pc.Total() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClusterDeterministicReplay(t *testing.T) {
	run := func() (uint64, uint64) {
		c := smallCluster(t, 12, 99)
		c.Run(time2())
		return c.MessagesSent, c.BitsSent
	}
	m1, b1 := run()
	m2, b2 := run()
	if m1 != m2 || b1 != b2 {
		t.Fatalf("full-fidelity replay diverged: %d/%d vs %d/%d", m1, b1, m2, b2)
	}
}
