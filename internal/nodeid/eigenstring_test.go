package nodeid

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEigenstringOfPaperExample(t *testing.T) {
	// Figure 1 of the paper: node E has nodeId 1011 and level 1, so its
	// eigenstring is "1". Node H has nodeId 10** and level 2, eigenstring
	// "10".
	e, _ := FromBitString("1011")
	es := EigenstringOf(e, 1)
	if es.String() != "1" {
		t.Fatalf("eigenstring = %q want \"1\"", es)
	}
	h, _ := FromBitString("1000")
	hs := EigenstringOf(h, 2)
	if hs.String() != "10" {
		t.Fatalf("eigenstring = %q want \"10\"", hs)
	}
	if !hs.Contains(e) {
		t.Fatal("\"10\" should be in the audience of 1011")
	}
	// Property 2 of §2: E ("1") is stronger than H ("10"), i.e. a strict
	// prefix of it.
	if !es.IsPrefixOf(hs) || es == hs {
		t.Fatal("\"1\" should be stronger than \"10\"")
	}
	if hs.IsPrefixOf(es) {
		t.Fatal("\"10\" must not be stronger than \"1\"")
	}
}

func TestBlankEigenstring(t *testing.T) {
	var blank Eigenstring
	if blank.String() != "ε" {
		t.Fatalf("blank renders as %q", blank)
	}
	if blank.Level() != 0 {
		t.Fatal("blank eigenstring level should be 0")
	}
	// Property 3 of §2: a 0-level node's peer list covers the whole
	// system.
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		if !blank.Contains(randomID(r)) {
			t.Fatal("blank eigenstring must contain every ID")
		}
	}
}

func TestParseEigenstringRoundTrip(t *testing.T) {
	for _, s := range []string{"0", "1", "10", "0101", "111000111"} {
		e, err := ParseEigenstring(s)
		if err != nil {
			t.Fatalf("ParseEigenstring(%q): %v", s, err)
		}
		if e.String() != s {
			t.Fatalf("round trip %q -> %q", s, e)
		}
		if e.Level() != len(s) {
			t.Fatalf("level = %d want %d", e.Level(), len(s))
		}
	}
	if _, err := ParseEigenstring("01a"); err == nil {
		t.Fatal("expected error")
	}
}

func TestContainsMatchesPrefix(t *testing.T) {
	f := func(idHi, idLo, subjHi, subjLo uint64, l8 uint8) bool {
		id := ID{Hi: idHi, Lo: idLo}
		subj := ID{Hi: subjHi, Lo: subjLo}
		l := int(l8) % (Bits + 1)
		e := EigenstringOf(id, l)
		return e.Contains(subj) == (id.CommonPrefixLen(subj) >= l)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIsPrefixOf(t *testing.T) {
	a, _ := ParseEigenstring("10")
	b, _ := ParseEigenstring("101")
	c, _ := ParseEigenstring("11")
	if !a.IsPrefixOf(b) || !a.IsPrefixOf(a) {
		t.Fatal("prefix relation wrong")
	}
	if b.IsPrefixOf(a) {
		t.Fatal("longer string cannot be prefix of shorter")
	}
	if a.IsPrefixOf(c) || c.IsPrefixOf(a) {
		t.Fatal("\"10\" and \"11\" are unrelated")
	}
	var blank Eigenstring
	if !blank.IsPrefixOf(a) || !blank.IsPrefixOf(blank) {
		t.Fatal("blank is a prefix of everything")
	}
}

// The prefix tree around a node's eigenstring: one level down is the
// child on the node's own path (its sibling is the other child), one level
// up the parent.
func TestExtendParentSibling(t *testing.T) {
	id, _ := FromBitString("1011")
	e := EigenstringOf(id, 2)
	child := EigenstringOf(id, e.Len+1)
	if got := child.String(); got != "101" {
		t.Fatalf("child = %q", got)
	}
	if got := child.Sibling().String(); got != "100" {
		t.Fatalf("other child = %q", got)
	}
	for _, c := range []Eigenstring{child, child.Sibling()} {
		if !e.IsPrefixOf(c) || EigenstringOf(c.Prefix, e.Len) != e {
			t.Fatalf("%q is not a child of %q", c, e)
		}
	}
	if got := EigenstringOf(id, e.Len-1).String(); got != "1" {
		t.Fatalf("parent = %q", got)
	}
	if got := e.Sibling().String(); got != "11" {
		t.Fatalf("Sibling = %q", got)
	}
	if e.Sibling().Sibling() != e {
		t.Fatal("double sibling should be identity")
	}
}

func TestParentOfBlankPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("parent of blank did not panic")
		}
	}()
	_ = EigenstringOf(ID{}, Eigenstring{}.Len-1)
}

func TestSiblingOfBlankPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sibling of blank did not panic")
		}
	}()
	_ = (Eigenstring{}).Sibling()
}

func TestAudienceEigenstrings(t *testing.T) {
	// Of every eigenstring down to level 2, the audience set of the
	// paper's node E (1011) holds exactly {ε, "1", "10"} — what figure 2
	// depicts.
	e, _ := FromBitString("1011")
	var got []string
	for _, s := range []string{"", "0", "1", "00", "01", "10", "11"} {
		es, _ := ParseEigenstring(s)
		if es.Contains(e) {
			got = append(got, es.String())
		}
	}
	want := []string{"ε", "1", "10"}
	if len(got) != len(want) {
		t.Fatalf("audience %v want %v", got, want)
	}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("audience[%d] = %q want %q", i, got[i], w)
		}
	}
}

func TestAudienceIsPrefixChain(t *testing.T) {
	// The audience set of a subject holds one eigenstring per level, each
	// a strict prefix of the next — the "stronger covers weaker" property
	// (§2 property 2).
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		subj := randomID(r)
		for l := 1; l <= 12; l++ {
			prev, cur := EigenstringOf(subj, l-1), EigenstringOf(subj, l)
			if !cur.Contains(subj) || !prev.IsPrefixOf(cur) || prev == cur {
				t.Fatalf("level %d of the audience chain is not stronger than level %d", l-1, l)
			}
		}
	}
}

func TestEigenstringMapKey(t *testing.T) {
	// Eigenstrings must be canonical (tail bits zeroed) to work as map
	// keys: two nodes with the same prefix but different suffixes share
	// the key.
	a, _ := FromBitString("10110000")
	b, _ := FromBitString("10111111")
	m := map[Eigenstring]int{}
	m[EigenstringOf(a, 4)]++
	m[EigenstringOf(b, 4)]++
	if len(m) != 1 || m[EigenstringOf(a, 4)] != 2 {
		t.Fatal("eigenstrings with equal prefixes must collide as map keys")
	}
	if EigenstringOf(a, 5) == EigenstringOf(b, 5) {
		t.Fatal("different 5-bit prefixes must not collide")
	}
}

func TestLevelBoundsPanic(t *testing.T) {
	for _, l := range []int{-1, Bits + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("EigenstringOf level %d did not panic", l)
				}
			}()
			_ = EigenstringOf(ID{}, l)
		}()
	}
}
