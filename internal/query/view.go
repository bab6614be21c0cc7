package query

import (
	"cmp"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"peerwindow/internal/nodeid"
)

// Bucketing parameters. Entries are kept sorted by ID and partitioned into
// immutable buckets of roughly targetBucket entries. A delta clones exactly
// one bucket plus the bucket table, so publishing a new view costs
// O(targetBucket + N/targetBucket) pointer copies — a few KB at N=10k —
// while every untouched bucket (and its indexes) is shared with the
// previous epoch.
const (
	targetBucket = 128 // split point aims at two buckets of this size
	maxBucket    = 2 * targetBucket
	minBucket    = targetBucket / 4 // below this, try merging into a neighbor
)

// levelSlots is the size of the per-level count tables. wire levels are a
// uint8, so index by the full byte range rather than trusting inputs to
// stay below nodeid.Bits.
const levelSlots = 256

// fieldIndex is a bucket's field postings: for each distinct
// ';'-separated info field value, the ascending offsets of the entries
// carrying it. The val strings share the backing arrays of the entries'
// infos — the index adds no string copies — and every posting list is a
// range of the one offs arena.
type fieldIndex struct {
	fields []fieldPosting // sorted by val
	offs   []uint16
}

// fieldPosting is one distinct field value and its posting list
// offs[lo:hi] in the enclosing index.
type fieldPosting struct {
	val    string
	lo, hi uint32
}

// noFields is the index of every bucket whose entries carry no fields.
var noFields = &fieldIndex{}

// buildFieldIndex indexes ents in three allocations, however many
// distinct fields they hold: the postings slice, sized to a bound on the
// number of field occurrences; the offs arena; the index header. The postings
// slice first holds one unsorted (field, entry offset) ref per occurrence,
// the offset parked in lo, and is then sorted and compacted in place.
// Duplicate fields within one entry's info contribute a single offset.
func buildFieldIndex(ents []Entry) *fieldIndex {
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
	w := 0 // compacted postings so far; never ahead of the ref being read
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
	clear(fields[w:]) // else the GC traces the stale refs' strings for the index's lifetime
	return &fieldIndex{fields: fields[:w], offs: offs}
}

// search returns the position of the first field not below val.
func (x *fieldIndex) search(val string) int {
	return sort.Search(len(x.fields), func(i int) bool { return x.fields[i].val >= val })
}

// at returns the offsets of the entries carrying the i-th field.
func (x *fieldIndex) at(i int) []uint16 {
	f := &x.fields[i]
	return x.offs[f.lo:f.hi]
}

// postings returns the offsets of the entries carrying the field val.
func (x *fieldIndex) postings(val string) []uint16 {
	i := x.search(val)
	if i == len(x.fields) || x.fields[i].val != val {
		return nil
	}
	return x.at(i)
}

// equal reports whether x and y index the same fields at the same offsets.
func (x *fieldIndex) equal(y *fieldIndex) bool {
	if len(x.fields) != len(y.fields) {
		return false
	}
	for i := range x.fields {
		if x.fields[i].val != y.fields[i].val || !slices.Equal(x.at(i), y.at(i)) {
			return false
		}
	}
	return true
}

// bucket is an immutable run of consecutive (ID-sorted) entries plus the
// per-bucket secondary indexes. Buckets are shared between views; their
// entries and level tables are never mutated after construction.
type bucket struct {
	ents     []Entry
	levels   [levelSlots]uint16 // count of entries per level value
	minLevel int16              // smallest level present, -1 if empty
	maxLevel int16              // largest level present, -1 if empty

	// index holds the field index once published, nil before. Readers
	// build it lazily on the first field query touching the bucket; the
	// writer never builds, it only hands a predecessor's index on to a
	// clone whose infos are unchanged (see insertView). Because untouched
	// buckets are shared between epochs, a published index keeps serving
	// every later view that references the bucket.
	index atomic.Pointer[fieldIndex]
}

// newBucket builds a bucket (and its level index) from an already ID-sorted
// entry slice. The slice is owned by the bucket afterwards.
func newBucket(ents []Entry) *bucket {
	b := &bucket{ents: ents, minLevel: -1, maxLevel: -1}
	for i := range ents {
		l := int16(ents[i].Level)
		b.levels[l]++
		if b.minLevel < 0 || l < b.minLevel {
			b.minLevel = l
		}
		if l > b.maxLevel {
			b.maxLevel = l
		}
	}
	return b
}

// fields returns the bucket's field index, building and publishing it if
// no reader has yet. Safe for concurrent readers: racing builds of one
// immutable bucket are equal, and every caller gets the one the CAS
// published.
func (b *bucket) fields() *fieldIndex {
	if x := b.index.Load(); x != nil {
		return x
	}
	x := buildFieldIndex(b.ents)
	if !b.index.CompareAndSwap(nil, x) {
		return b.index.Load()
	}
	return x
}

// find returns the offset of id within the bucket and whether it is present.
//
//pwlint:noalloc
func (b *bucket) find(id nodeid.ID) (int, bool) {
	i := sort.Search(len(b.ents), func(i int) bool {
		return !b.ents[i].ID.Less(id)
	})
	if i < len(b.ents) && b.ents[i].ID == id {
		return i, true
	}
	return i, false
}

// View is an immutable snapshot of one node's window at a single epoch.
// All methods are safe for concurrent use by any number of goroutines, and
// none of them blocks or observes later protocol activity: a View never
// changes after it is published.
type View struct {
	epoch   uint64
	total   int
	buckets []bucketRef
	levels  [levelSlots]int32
}

// bucketRef is one row of a view's bucket table: a bucket, which views
// share, and where its entries start in this view's global order.
type bucketRef struct {
	*bucket
	start int // global index of ents[0]
}

// emptyView is the epoch-0 snapshot shared by all fresh stores.
func emptyView() *View { return &View{} }

// Epoch returns the snapshot's epoch. Epochs increase by exactly one per
// applied window delta, so subscribers can align a delta stream with a
// baseline view (see Sub).
func (v *View) Epoch() uint64 { return v.epoch }

// Len returns the number of entries in the snapshot.
func (v *View) Len() int { return v.total }

// At returns the i-th entry in ascending ID order. It panics if i is out of
// range, mirroring slice indexing.
//
//pwlint:noalloc
func (v *View) At(i int) Entry {
	bi := sort.Search(len(v.buckets), func(b int) bool { return v.buckets[b].start > i }) - 1
	r := v.buckets[bi]
	return r.ents[i-r.start]
}

// bucketFor returns the index of the bucket that does or would contain id.
//
//pwlint:noalloc
func (v *View) bucketFor(id nodeid.ID) int {
	bi := sort.Search(len(v.buckets), func(b int) bool {
		return id.Less(v.buckets[b].ents[0].ID)
	}) - 1
	if bi < 0 {
		bi = 0
	}
	return bi
}

// Get returns the entry with the given ID, if present. O(log N).
//
//pwlint:noalloc
func (v *View) Get(id nodeid.ID) (Entry, bool) {
	if v.total == 0 {
		return Entry{}, false
	}
	b := v.buckets[v.bucketFor(id)]
	if off, ok := b.find(id); ok {
		return b.ents[off], true
	}
	return Entry{}, false
}

// Each calls fn for every entry in ascending ID order until fn returns
// false. It performs no allocations.
//
//pwlint:noalloc
func (v *View) Each(fn func(Entry) bool) {
	for _, b := range v.buckets {
		for i := range b.ents {
			if !fn(b.ents[i]) {
				return
			}
		}
	}
}

// Entries returns a fresh slice of all entries in ascending ID order.
func (v *View) Entries() []Entry {
	out := make([]Entry, 0, v.total)
	for _, b := range v.buckets {
		out = append(out, b.ents...)
	}
	return out
}

// MinLevel returns the smallest level present in the snapshot, or -1 if the
// snapshot is empty. O(1) amortized over the level table.
//
//pwlint:noalloc
func (v *View) MinLevel() int {
	for l := 0; l < levelSlots; l++ {
		if v.levels[l] > 0 {
			return l
		}
	}
	return -1
}

// CountAtLevel returns the number of entries whose level equals l. O(1).
//
//pwlint:noalloc
func (v *View) CountAtLevel(l int) int {
	if l < 0 || l >= levelSlots {
		return 0
	}
	return int(v.levels[l])
}

// Strongest returns up to k entries ordered by ascending level (the paper's
// "powerful node" ordering — lower level means the node holds a larger
// window), breaking level ties by ascending ID. This is exactly the order a
// stable sort by level over the ID-sorted window produces, and it costs
// O(k + B) via the level index rather than a full sort: the global level
// table picks the populated levels and the per-bucket tables skip buckets
// with no entries at that level.
func (v *View) Strongest(k int) []Entry {
	if k > v.total {
		k = v.total
	}
	if k <= 0 {
		return nil
	}
	out := make([]Entry, 0, k)
	for l := 0; l < levelSlots && len(out) < k; l++ {
		if v.levels[l] == 0 {
			continue
		}
		for _, b := range v.buckets {
			if b.levels[l] == 0 {
				continue
			}
			for i := range b.ents {
				if b.ents[i].Level == uint8(l) {
					out = append(out, b.ents[i])
					if len(out) == k {
						return out
					}
				}
			}
		}
	}
	return out
}

// WithField returns all entries whose attached info contains the exact
// ';'-separated field val (e.g. "os=linux"), in ascending ID order. The
// lookup is a binary search in each bucket's field index: O(B·log F + k)
// where B is the bucket count and F the distinct fields per bucket — it
// never scans entries that do not match.
func (v *View) WithField(val string) []Entry {
	// Two passes, count then fill, so the result is allocated once at its
	// exact size.
	n := 0
	for _, b := range v.buckets {
		n += len(b.fields().postings(val))
	}
	if n == 0 {
		return nil
	}
	out := make([]Entry, 0, n)
	for _, b := range v.buckets {
		for _, off := range b.fields().postings(val) {
			out = append(out, b.ents[off])
		}
	}
	return out
}

// InfoContains returns all entries whose attached info contains substr, in
// ascending ID order — the indexed equivalent of Window.InfoContains. When
// substr contains no field separator, any match must lie entirely inside a
// single ';'-separated field, so scanning the (much smaller) per-bucket
// field dictionaries is exact; buckets whose dictionary has no matching
// field are skipped without touching their entries. A substr containing ';'
// can straddle fields and falls back to scanning the entries of each
// bucket. The empty substring matches every entry, like strings.Contains.
func (v *View) InfoContains(substr string) []Entry {
	if substr == "" {
		return v.Entries()
	}
	var out []Entry
	if strings.ContainsRune(substr, ';') {
		for _, b := range v.buckets {
			for i := range b.ents {
				if strings.Contains(b.ents[i].info, substr) {
					out = append(out, b.ents[i])
				}
			}
		}
		return out
	}
	var seen []bool
	for _, b := range v.buckets {
		x := b.fields()
		hit := false
		for i := range x.fields {
			if strings.Contains(x.fields[i].val, substr) {
				hit = true
				break
			}
		}
		if !hit {
			continue
		}
		if cap(seen) < len(b.ents) {
			seen = make([]bool, len(b.ents))
		} else {
			seen = seen[:len(b.ents)]
			clear(seen)
		}
		for i := range x.fields {
			if strings.Contains(x.fields[i].val, substr) {
				for _, off := range x.at(i) {
					seen[off] = true
				}
			}
		}
		for off := range b.ents {
			if seen[off] {
				out = append(out, b.ents[off])
			}
		}
	}
	return out
}

// CountWhere returns the number of entries for which pred is true. It is a
// zero-copy scan: pred receives each entry without any conversion or
// allocation.
func (v *View) CountWhere(pred func(Entry) bool) int {
	n := 0
	for _, b := range v.buckets {
		for i := range b.ents {
			if pred(b.ents[i]) {
				n++
			}
		}
	}
	return n
}

// TopK returns up to k entries maximizing score, in descending score order,
// breaking score ties by ascending ID (the stable order of the underlying
// window). Entries for which score returns ok=false are excluded. The scan
// keeps a bounded k-element selection: O(N·log k) time, O(k) space. The
// score function must not return NaN.
func (v *View) TopK(k int, score func(Entry) (float64, bool)) []Entry {
	if k <= 0 {
		return nil
	}
	type scored struct {
		s   float64
		idx int
		e   Entry
	}
	// Min-heap on (score asc, idx desc): the root is the weakest kept
	// candidate — smallest score, and among equal scores the latest entry,
	// because an earlier entry wins score ties.
	h := make([]scored, 0, k)
	worse := func(a, b scored) bool {
		if a.s != b.s {
			return a.s < b.s
		}
		return a.idx > b.idx
	}
	down := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < len(h) && worse(h[l], h[m]) {
				m = l
			}
			if r < len(h) && worse(h[r], h[m]) {
				m = r
			}
			if m == i {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	up := func(i int) {
		for i > 0 {
			p := (i - 1) / 2
			if !worse(h[i], h[p]) {
				return
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
	}
	idx := 0
	for _, b := range v.buckets {
		for i := range b.ents {
			s, ok := score(b.ents[i])
			if ok {
				c := scored{s: s, idx: idx, e: b.ents[i]}
				if len(h) < k {
					h = append(h, c)
					up(len(h) - 1)
				} else if worse(h[0], c) {
					h[0] = c
					down(0)
				}
			}
			idx++
		}
	}
	sort.Slice(h, func(i, j int) bool {
		if h[i].s != h[j].s {
			return h[i].s > h[j].s
		}
		return h[i].idx < h[j].idx
	})
	out := make([]Entry, len(h))
	for i := range h {
		out[i] = h[i].e
	}
	return out
}

// Sample returns up to k entries drawn uniformly without replacement, using
// the deterministic generator seeded by seed: the same (snapshot, k, seed)
// always yields the same sample. When k is at least the snapshot size the
// whole snapshot is returned in ID order.
func (v *View) Sample(k int, seed uint64) []Entry {
	if k >= v.total {
		return v.Entries()
	}
	idx := SampleIndexes(v.total, k, seed)
	out := make([]Entry, 0, len(idx))
	for _, i := range idx {
		out = append(out, v.At(i))
	}
	return out
}

// Digest returns an order-sensitive FNV-1a hash over every entry of the
// snapshot (ID, addr, level and info bytes). Two views with identical
// windows digest identically; the pwinvariants build uses it to prove a
// published view is never mutated by later epochs.
func (v *View) Digest() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (x & 0xff)) * prime
			x >>= 8
		}
	}
	mix(uint64(v.total))
	for _, b := range v.buckets {
		for i := range b.ents {
			e := &b.ents[i]
			mix(e.ID.Hi)
			mix(e.ID.Lo)
			mix(uint64(e.Addr))
			mix(uint64(e.Level))
			mix(uint64(len(e.info)))
			for j := 0; j < len(e.info); j++ {
				h = (h ^ uint64(e.info[j])) * prime
			}
		}
	}
	return h
}

// Empty returns an empty epoch-0 view, for callers needing a non-nil
// placeholder.
func Empty() *View { return emptyView() }
