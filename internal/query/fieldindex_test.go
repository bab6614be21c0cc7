package query

import (
	"fmt"
	"hash/maphash"
	"slices"
	"strings"
	"sync"
	"testing"

	"peerwindow/internal/wire"
	"peerwindow/internal/xrand"
)

// eachField calls fn for every non-empty ';'-separated field of the
// entry's info, in order, repeats included.
func (e Entry) eachField(fn func(f string)) {
	s := e.info
	for len(s) > 0 {
		i := strings.IndexByte(s, ';')
		if i < 0 {
			fn(s)
			return
		}
		if i > 0 {
			fn(s[:i])
		}
		s = s[i+1:]
	}
}

// refFieldIndex is the straightforward build buildFieldIndex must agree
// with: every field in entry order, each distinct value listed where it
// is first seen, its posting list appended to as entries carrying it
// follow, repeated offsets dropped. It builds no probe table;
// checkAgainstReference tests the table by lookups.
func refFieldIndex(ents []Entry) *fieldIndex {
	var vals []string
	post := make(map[string][]uint16)
	for i := range ents {
		off := uint16(i)
		ents[i].eachField(func(f string) {
			p, seen := post[f]
			if !seen {
				vals = append(vals, f)
			}
			if len(p) == 0 || p[len(p)-1] != off {
				post[f] = append(p, off)
			}
		})
	}
	if len(vals) == 0 {
		return noFields
	}
	x := &fieldIndex{fields: make([]fieldPosting, len(vals))}
	for i, v := range vals {
		lo := uint32(len(x.offs))
		x.offs = append(x.offs, post[v]...)
		x.fields[i] = fieldPosting{val: v, lo: lo, hi: uint32(len(x.offs))}
	}
	return x
}

// lookup returns x's postings of val through the probe table.
func lookup(x *fieldIndex, val string) []uint16 {
	return x.postings(val, maphash.String(fieldHashSeed, val))
}

// entriesOf wraps infos as bucket entries; the build reads only the infos.
func entriesOf(infos []string) []Entry {
	ents := make([]Entry, len(infos))
	for i, info := range infos {
		ents[i] = Entry{info: info}
	}
	return ents
}

// checkAgainstReference fails t unless the build of infos equals the
// reference build and is exactly sized, and its table finds every value
// of the reference at the reference's postings and no vocabulary value
// the infos lack.
func checkAgainstReference(t *testing.T, infos []string) {
	t.Helper()
	ents := entriesOf(infos)
	got, want := buildFieldIndex(ents), refFieldIndex(ents)
	if !got.equal(want) {
		t.Fatalf("index of %q:\n got %v\nwant %v", infos, dumpIndex(got), dumpIndex(want))
	}
	if msg := sizeError(got); msg != "" {
		t.Fatalf("index of %q: %s", infos, msg)
	}
	held := make(map[string]bool, len(want.fields))
	for i, f := range want.fields {
		held[f.val] = true
		if p := lookup(got, f.val); !slices.Equal(p, want.at(i)) {
			t.Fatalf("index of %q: lookup of %q gives %v, want %v", infos, f.val, p, want.at(i))
		}
	}
	for _, val := range fieldVocabulary {
		if p := lookup(got, val); !held[val] && p != nil {
			t.Fatalf("index of %q: lookup of absent %q gives %v", infos, val, p)
		}
	}
}

// sizeError describes how x holds spare capacity, or returns "": fields
// holds one posting per distinct value, offs one offset per (value,
// entry) pair, and the table is the smallest power of two at least twice
// the distinct values.
func sizeError(x *fieldIndex) string {
	if cap(x.fields) != len(x.fields) || cap(x.offs) != len(x.offs) || cap(x.table) != len(x.table) {
		return fmt.Sprintf("not exactly sized: fields %d/%d, offs %d/%d, table %d/%d",
			len(x.fields), cap(x.fields), len(x.offs), cap(x.offs), len(x.table), cap(x.table))
	}
	if n := len(x.fields); n > 0 && len(x.table) != tableSize(n) {
		return fmt.Sprintf("table of %d slots for %d values, want %d", len(x.table), n, tableSize(n))
	}
	return ""
}

func dumpIndex(x *fieldIndex) string {
	var b strings.Builder
	for i, f := range x.fields {
		fmt.Fprintf(&b, "%q:%v ", f.val, x.at(i))
	}
	return b.String()
}

// fieldVocabulary holds the hard cases for the build's dedup and the
// table's lookup, which must tell apart values sharing their first 8
// bytes, values that are prefixes of each other ("a" and "a\x00") and
// values holding NUL bytes.
var fieldVocabulary = []string{
	"a", "a\x00", "a\x00b", "ab", "\x00", "\x00\x00", "b",
	"os=linux", "os=linu", "os=linux2", "os=plan9",
	"longname=1", "longname=10", "longname=2", "longname", "longnam", "longname\x00",
	"role=db", "role=cache", "\xff\xff\xff\xff\xff\xff\xff\xff", "\xff\xff\xff\xff\xff\xff\xff\xff\x00",
}

// randomInfo joins up to six segments drawn from the vocabulary with
// empty ones mixed in, so infos carry ";;", leading and trailing ';' and
// fields repeated within one entry.
func randomInfo(rng *xrand.Source) string {
	segs := make([]string, rng.Intn(7))
	for i := range segs {
		if rng.Intn(5) > 0 {
			segs[i] = fieldVocabulary[rng.Intn(len(fieldVocabulary))]
		}
	}
	return strings.Join(segs, ";")
}

func TestFieldIndexMatchesReference(t *testing.T) {
	rng := xrand.New(40)
	for trial := 0; trial < 400; trial++ {
		infos := make([]string, rng.Intn(maxBucket+1))
		distinct := trial%4 == 0 // every entry carries its own fields
		for i := range infos {
			if distinct {
				infos[i] = fmt.Sprintf("slot=%d;host=h%d;rack=%d;", trial*maxBucket+i, i, i)
			} else {
				infos[i] = randomInfo(rng)
			}
		}
		checkAgainstReference(t, infos)
	}
	for _, infos := range [][]string{
		{},
		{""},
		{";", ";;", ";a;", "a;;a", "a;a;a"},
		{"longname=1;longname=2", "longname=2;longname=1;longname", "longname"},
		{"a\x00;a", "a;a\x00b", "\x00", ";\x00;"},
	} {
		checkAgainstReference(t, infos)
	}
}

// TestFieldIndexConcurrentBuilds: builds racing for the one idle scratch
// each get a scratch of their own and still match the reference.
func TestFieldIndexConcurrentBuilds(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := xrand.New(uint64(g))
			for trial := 0; trial < 100; trial++ {
				infos := make([]string, rng.Intn(maxBucket+1))
				for i := range infos {
					infos[i] = randomInfo(rng)
				}
				ents := entriesOf(infos)
				if !buildFieldIndex(ents).equal(refFieldIndex(ents)) {
					t.Errorf("goroutine %d: index of %q differs from the reference", g, infos)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestFieldIndexWorstCaseBucket fills one bucket with the most distinct
// values the store lets it hold: maxBucket entries, each a
// wire.MaxInfoLen-byte info of 85 distinct two-byte fields. Every value
// must be found, through the table and through WithField.
func TestFieldIndexWorstCaseBucket(t *testing.T) {
	var alphabet []byte // every byte but the separator
	for b := 0; b < 256; b++ {
		if b != ';' {
			alphabet = append(alphabet, byte(b))
		}
	}
	s := NewStore(nil)
	var vals, infos []string
	for i := 0; i < maxBucket; i++ {
		var info []byte
		for len(info)+3 <= wire.MaxInfoLen {
			k := len(vals)
			val := string([]byte{alphabet[k/len(alphabet)], alphabet[k%len(alphabet)]})
			vals = append(vals, val)
			info = append(info, val...)
			info = append(info, ';')
		}
		if len(info) != wire.MaxInfoLen {
			t.Fatalf("info of %d bytes, want %d", len(info), wire.MaxInfoLen)
		}
		infos = append(infos, string(info))
		s.PeerAdded(ptr(fmt.Sprintf("worst-%d", i), 0, string(info)))
	}
	v := s.View()
	if len(v.rows) != 1 || len(vals) != maxBucket*85 {
		t.Fatalf("%d rows and %d values, want 1 and %d", len(v.rows), len(vals), maxBucket*85)
	}
	x := v.rows[0].fields()
	if len(x.fields) != len(vals) {
		t.Fatalf("index holds %d values, want %d", len(x.fields), len(vals))
	}
	if msg := sizeError(x); msg != "" {
		t.Fatal(msg)
	}
	for _, val := range vals {
		if p := lookup(x, val); len(p) != 1 {
			t.Fatalf("lookup of %q gives %v, want one entry", val, p)
		}
		if got := v.WithField(val); len(got) != 1 {
			t.Fatalf("WithField(%q) returns %d entries, want 1", val, len(got))
		}
	}
	checkAgainstReference(t, infos)
}

func FuzzFieldIndexBuild(f *testing.F) {
	f.Add([]byte("os=linux;role=db\nos=linux;;role=edge;\n;os=plan9\nrole=db;role=db"))
	f.Add([]byte("longname=1\nlongname=2;longname\n\nlongnam;longname\x00"))
	f.Add([]byte("a\x00;a\n\x00\x00;;\x00\n;\n;;;"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// The store takes no info longer than wire.MaxInfoLen.
		infos := strings.SplitN(string(data), "\n", maxBucket)
		for i := range infos {
			infos[i] = infos[i][:min(len(infos[i]), wire.MaxInfoLen)]
		}
		checkAgainstReference(t, infos)
	})
}
