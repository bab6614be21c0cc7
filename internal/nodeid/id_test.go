package nodeid

import (
	"encoding/json"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomID(r *rand.Rand) ID {
	return ID{Hi: r.Uint64(), Lo: r.Uint64()}
}

func TestBytesRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		id := randomID(r)
		b := id.Bytes()
		got, err := FromBytes(b[:])
		if err != nil {
			t.Fatalf("FromBytes: %v", err)
		}
		if got != id {
			t.Fatalf("round trip: got %v want %v", got, id)
		}
	}
}

func TestFromBytesWrongLength(t *testing.T) {
	if _, err := FromBytes(make([]byte, 15)); err == nil {
		t.Fatal("expected error for 15-byte input")
	}
	if _, err := FromBytes(make([]byte, 17)); err == nil {
		t.Fatal("expected error for 17-byte input")
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		id := randomID(r)
		got, err := Parse(id.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", id.String(), err)
		}
		if got != id {
			t.Fatalf("round trip: got %v want %v", got, id)
		}
	}
}

func TestParseRejectsBadInput(t *testing.T) {
	for _, s := range []string{"", "abc", "zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestHashDeterministicAndDistinct(t *testing.T) {
	a := HashString("node-a")
	b := HashString("node-b")
	if a != HashString("node-a") {
		t.Fatal("Hash is not deterministic")
	}
	if a == b {
		t.Fatal("distinct inputs hashed to the same ID")
	}
}

func TestBitMSBFirst(t *testing.T) {
	id := ID{Hi: 1 << 63} // only bit 0 set
	if id.Bit(0) != 1 {
		t.Fatal("bit 0 should be the MSB of Hi")
	}
	for i := 1; i < Bits; i++ {
		if id.Bit(i) != 0 {
			t.Fatalf("bit %d should be 0", i)
		}
	}
	id = ID{Lo: 1} // only bit 127 set
	if id.Bit(127) != 1 {
		t.Fatal("bit 127 should be the LSB of Lo")
	}
}

func TestWithBitFlipBit(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		id := randomID(r)
		pos := r.Intn(Bits)
		set := id.WithBit(pos, 1)
		if set.Bit(pos) != 1 {
			t.Fatalf("WithBit(%d,1) did not set the bit", pos)
		}
		clr := id.WithBit(pos, 0)
		if clr.Bit(pos) != 0 {
			t.Fatalf("WithBit(%d,0) did not clear the bit", pos)
		}
		if f := id.FlipBit(pos); f.Bit(pos) == id.Bit(pos) {
			t.Fatalf("FlipBit(%d) did not flip", pos)
		}
		if id.FlipBit(pos).FlipBit(pos) != id {
			t.Fatalf("FlipBit twice should restore the ID")
		}
	}
}

func TestBitIndexPanics(t *testing.T) {
	for _, i := range []int{-1, Bits} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Bit(%d) did not panic", i)
				}
			}()
			_ = ID{}.Bit(i)
		}()
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b ID
		want int
	}{
		{ID{}, ID{}, 0},
		{ID{Hi: 1}, ID{}, 1},
		{ID{}, ID{Hi: 1}, -1},
		{ID{Lo: 5}, ID{Lo: 7}, -1},
		{ID{Hi: 1, Lo: 0}, ID{Hi: 0, Lo: ^uint64(0)}, 1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d want %d", c.a, c.b, got, c.want)
		}
		if got := c.b.Compare(c.a); got != -c.want {
			t.Errorf("Compare(%v,%v) = %d want %d", c.b, c.a, got, -c.want)
		}
	}
}

func TestCommonPrefixLen(t *testing.T) {
	a, _ := FromBitString("1011")
	b, _ := FromBitString("1010")
	if got := a.CommonPrefixLen(b); got != 3 {
		t.Fatalf("CommonPrefixLen = %d want 3", got)
	}
	if got := a.CommonPrefixLen(a); got != Bits {
		t.Fatalf("self prefix = %d want %d", got, Bits)
	}
	c := ID{Hi: a.Hi, Lo: a.Lo ^ 1} // differ in last bit only
	if got := a.CommonPrefixLen(c); got != 127 {
		t.Fatalf("CommonPrefixLen = %d want 127", got)
	}
}

func TestPrefixZeroesTail(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		id := randomID(r)
		l := r.Intn(Bits + 1)
		p := id.Prefix(l)
		if p.CommonPrefixLen(id) < l {
			t.Fatalf("Prefix(%d) changed leading bits", l)
		}
		for j := l; j < Bits; j++ {
			if p.Bit(j) != 0 {
				t.Fatalf("Prefix(%d): bit %d not zeroed", l, j)
			}
		}
		if p.Prefix(l) != p {
			t.Fatalf("Prefix(%d) not idempotent", l)
		}
	}
}

func TestPrefixBoundaries(t *testing.T) {
	id := ID{Hi: ^uint64(0), Lo: ^uint64(0)}
	if id.Prefix(0) != (ID{}) {
		t.Fatal("Prefix(0) should be zero")
	}
	if id.Prefix(64) != (ID{Hi: ^uint64(0)}) {
		t.Fatal("Prefix(64) should keep exactly Hi")
	}
	if id.Prefix(128) != id {
		t.Fatal("Prefix(128) should be identity")
	}
	if id.Prefix(-3) != (ID{}) {
		t.Fatal("negative prefix length should clamp to zero")
	}
}

func TestBitStringRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		id := randomID(r)
		n := r.Intn(Bits + 1)
		s := id.BitString(n)
		if len(s) != n {
			t.Fatalf("BitString length %d want %d", len(s), n)
		}
		back, err := FromBitString(s)
		if err != nil {
			t.Fatalf("FromBitString: %v", err)
		}
		if back != id.Prefix(n) {
			t.Fatalf("round trip mismatch at n=%d", n)
		}
	}
}

func TestFromBitStringRejectsBadInput(t *testing.T) {
	if _, err := FromBitString("01x"); err == nil {
		t.Fatal("expected error for non-binary character")
	}
	long := make([]byte, Bits+1)
	for i := range long {
		long[i] = '0'
	}
	if _, err := FromBitString(string(long)); err == nil {
		t.Fatal("expected error for overlong string")
	}
}

func TestAddSubInverse(t *testing.T) {
	f := func(aHi, aLo, bHi, bLo uint64) bool {
		a := ID{Hi: aHi, Lo: aLo}
		b := ID{Hi: bHi, Lo: bLo}
		return a.Add(b).Sub(b) == a && a.Sub(b).Add(b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddCarry(t *testing.T) {
	a := ID{Lo: ^uint64(0)}
	got := a.Add(ID{Lo: 1})
	if got != (ID{Hi: 1}) {
		t.Fatalf("carry not propagated: %v", got)
	}
	// Wrap-around of the whole space.
	max := ID{Hi: ^uint64(0), Lo: ^uint64(0)}
	if max.Add(ID{Lo: 1}) != (ID{}) {
		t.Fatal("2^128 wrap-around failed")
	}
}

// The clockwise ring distance from a to b is b.Sub(a).
func TestDistanceRing(t *testing.T) {
	a := ID{Lo: 10}
	b := ID{Lo: 3}
	// Clockwise from a to b wraps around the whole ring.
	d := b.Sub(a)
	if d != (ID{Hi: ^uint64(0), Lo: ^uint64(6)}) || a.Add(d) != b {
		t.Fatalf("distance from a to b = %v, not 2^128 - 7", d)
	}
	if a.Sub(b) != (ID{Lo: 7}) {
		t.Fatalf("distance from b to a = %v want 7", a.Sub(b))
	}
}

func TestIsZero(t *testing.T) {
	if !(ID{}).IsZero() {
		t.Fatal("zero value should be zero")
	}
	if (ID{Lo: 1}).IsZero() || (ID{Hi: 1}).IsZero() {
		t.Fatal("non-zero IDs reported zero")
	}
}

func TestCommonPrefixLenSymmetric(t *testing.T) {
	f := func(aHi, aLo, bHi, bLo uint64) bool {
		a := ID{Hi: aHi, Lo: aLo}
		b := ID{Hi: bHi, Lo: bLo}
		return a.CommonPrefixLen(b) == b.CommonPrefixLen(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixAgreesWithCommonPrefixLen(t *testing.T) {
	f := func(aHi, aLo, bHi, bLo uint64, l8 uint8) bool {
		a := ID{Hi: aHi, Lo: aLo}
		b := ID{Hi: bHi, Lo: bLo}
		l := int(l8) % (Bits + 1)
		same := a.Prefix(l) == b.Prefix(l)
		return same == (a.CommonPrefixLen(b) >= l)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTextMarshalling(t *testing.T) {
	id := HashString("marshal-me")
	b, err := id.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	var back ID
	if err := back.UnmarshalText(b); err != nil {
		t.Fatal(err)
	}
	if back != id {
		t.Fatal("text round trip mismatch")
	}
	if err := back.UnmarshalText([]byte("nope")); err == nil {
		t.Fatal("bad text accepted")
	}
	// JSON integration: IDs embed cleanly in structs.
	type doc struct {
		Node ID `json:"node"`
	}
	out, err := json.Marshal(doc{Node: id})
	if err != nil {
		t.Fatal(err)
	}
	var in doc
	if err := json.Unmarshal(out, &in); err != nil {
		t.Fatal(err)
	}
	if in.Node != id {
		t.Fatal("json round trip mismatch")
	}
}
