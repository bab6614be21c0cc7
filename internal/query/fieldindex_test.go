package query

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

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
// with: one (field, entry offset) ref per occurrence, sorted by field then
// offset, compacted into postings with repeated offsets dropped.
func refFieldIndex(ents []Entry) *fieldIndex {
	n := 0
	for i := range ents {
		n += ents[i].fieldBound()
	}
	if n == 0 {
		return noFields
	}
	fields := make([]fieldPosting, 0, n)
	for i := range ents {
		off := uint32(i)
		ents[i].eachField(func(f string) {
			fields = append(fields, fieldPosting{val: f, lo: off})
		})
	}
	slices.SortFunc(fields, func(a, b fieldPosting) int {
		if c := strings.Compare(a.val, b.val); c != 0 {
			return c
		}
		return cmp.Compare(a.lo, b.lo)
	})
	offs := make([]uint16, 0, len(fields))
	w := 0
	for _, r := range fields {
		off := uint16(r.lo)
		if w > 0 && fields[w-1].val == r.val {
			if offs[len(offs)-1] != off {
				offs = append(offs, off)
				fields[w-1].hi++
			}
			continue
		}
		fields[w] = fieldPosting{val: r.val, lo: uint32(len(offs)), hi: uint32(len(offs)) + 1}
		offs = append(offs, off)
		w++
	}
	return &fieldIndex{fields: fields[:w], offs: offs}
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
// reference build and is exactly sized.
func checkAgainstReference(t *testing.T, infos []string) {
	t.Helper()
	ents := entriesOf(infos)
	got, want := buildFieldIndex(ents), refFieldIndex(ents)
	if !got.equal(want) {
		t.Fatalf("index of %q:\n got %v\nwant %v", infos, dumpIndex(got), dumpIndex(want))
	}
	if cap(got.fields) != len(got.fields) || cap(got.offs) != len(got.offs) {
		t.Fatalf("index of %q is not exactly sized: fields %d/%d, offs %d/%d",
			infos, len(got.fields), cap(got.fields), len(got.offs), cap(got.offs))
	}
}

func dumpIndex(x *fieldIndex) string {
	var b strings.Builder
	for i, f := range x.fields {
		fmt.Fprintf(&b, "%q:%v ", f.val, x.at(i))
	}
	return b.String()
}

// fieldVocabulary holds the hard cases for the build's order and
// dedup: values sharing their first 8 bytes, values that are prefixes of
// each other (an 8-byte prefix key pads with zeros, so "a" and "a\x00"
// tie on it), and NUL bytes.
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

func FuzzFieldIndexBuild(f *testing.F) {
	f.Add([]byte("os=linux;role=db\nos=linux;;role=edge;\n;os=plan9\nrole=db;role=db"))
	f.Add([]byte("longname=1\nlongname=2;longname\n\nlongnam;longname\x00"))
	f.Add([]byte("a\x00;a\n\x00\x00;;\x00\n;\n;;;"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, strings.SplitN(string(data), "\n", maxBucket))
	})
}
