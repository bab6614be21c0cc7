package query

import (
	"cmp"
	"hash/maphash"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"peerwindow/internal/nodeid"
)

// Bucketing parameters. Entries are kept sorted by ID and partitioned into
// immutable buckets of roughly targetBucket entries. A delta clones exactly
// one bucket's entries plus the bucket table, so publishing a new view
// costs O(targetBucket + N/targetBucket) pointer copies — a few KB at
// N=10k — while every untouched bucket (and its indexes) is shared with
// the previous epoch.
const (
	targetBucket = 128 // split point aims at two buckets of this size
	maxBucket    = 2 * targetBucket
	minBucket    = targetBucket / 4 // below this, try merging into a neighbor
)

// fieldIndex is a row's field postings: for each distinct
// ';'-separated info field value, the ascending offsets of the entries
// carrying it, and an open-addressing table over the values. The val
// strings share the entries' infos' backing arrays. One exactly sized
// uint16 arena holds offs, one offset per (value, entry) pair, then
// table, tableSize(len(fields)) slots each holding 0 or 1 + a rank in
// fields. Ranks fit: the store takes no info over wire.MaxInfoLen (128
// fields at most), so maxBucket entries hold at most 32,768 values.
// gen is the generation of the row's infos the index describes (see row).
type fieldIndex struct {
	fields []fieldPosting // in order of first occurrence
	offs   []uint16
	table  []uint16
	gen    uint64
}

// fieldPosting is one distinct field value and its posting list
// offs[lo:hi] in the enclosing index.
type fieldPosting struct {
	val    string
	lo, hi uint32
}

// noFields is the generation-0 index of every row whose entries carry no
// fields.
var noFields = &fieldIndex{}

// fieldScratch is one build's working memory, kept between builds so
// that a build allocates only what it publishes.
type fieldScratch struct {
	table []uint32   // open addressing over vals: id+1, 0 when empty
	vals  []fieldVal // distinct values, id = order of first sight
	occ   []fieldOcc // one per (value, entry) pair, in entry order
}

// fieldVal is one distinct field value a build has met.
type fieldVal struct {
	val  string
	hash uint64
	n    uint32 // entries carrying val
	mark uint32 // 1 + the last entry counted
}

// fieldOcc records that the entry at off carries the value id.
type fieldOcc struct{ id, off uint32 }

// fieldHashSeed keys every field hash of the process, so a peer cannot
// choose infos whose fields collide in the tables.
var fieldHashSeed = maphash.MakeSeed()

// idleScratch holds one scratch between builds; a build that finds it
// taken makes its own. Only builds of at most scratchKeep field
// occurrences put theirs back, so a bucket of outsized infos does not pin
// its table. It is not a sync.Pool: under the race detector a pool drops
// a random quarter of its Puts, so a build's allocations would vary.
var idleScratch atomic.Pointer[fieldScratch]

const scratchKeep = 8 * maxBucket

// buildFieldIndex indexes ents in three allocations, however many
// distinct fields they hold: the postings slice, the uint16 arena and
// the index header, each exactly sized. It sorts nothing: one pass
// interns every field to a dense id in order of first sight and counts
// the entries carrying it (a field repeated within one entry counts
// once), and a second pass places each entry offset by counting sort, so
// every posting list comes out ascending. The table is then filled from
// the hashes the first pass computed.
func buildFieldIndex(ents []Entry) *fieldIndex {
	n := 0
	for i := range ents {
		n += ents[i].fieldBound()
	}
	if n == 0 {
		return noFields
	}
	sc := idleScratch.Swap(nil)
	if sc == nil {
		sc = new(fieldScratch)
	}
	sc.intern(ents, n)
	x := sc.index()
	if n <= scratchKeep {
		clear(sc.vals) // else the idle scratch keeps the entries' infos alive
		sc.vals, sc.occ = sc.vals[:0], sc.occ[:0]
		idleScratch.Store(sc)
	}
	return x
}

// tableSize returns the smallest power of two at least 2n, n > 0.
func tableSize(n int) int { return 1 << bits.Len(uint(2*n-1)) }

// intern fills vals and occ from the fields of ents, at most n of them,
// through an open-addressing table at most half full.
func (sc *fieldScratch) intern(ents []Entry, n int) {
	size := tableSize(n)
	if cap(sc.table) < size {
		sc.table = make([]uint32, size)
	}
	table := sc.table[:size]
	clear(table)
	mask := uint64(size - 1)
	vals, occ := sc.vals, sc.occ
	for i := range ents {
		mark := uint32(i) + 1
		s := ents[i].info
		for len(s) > 0 {
			f := s
			if j := strings.IndexByte(s, ';'); j >= 0 {
				f, s = s[:j], s[j+1:]
			} else {
				s = ""
			}
			if f == "" {
				continue
			}
			h := maphash.String(fieldHashSeed, f)
			for p := h & mask; ; p = (p + 1) & mask {
				id := table[p]
				if id == 0 {
					table[p] = uint32(len(vals)) + 1
					occ = append(occ, fieldOcc{id: uint32(len(vals)), off: uint32(i)})
					vals = append(vals, fieldVal{val: f, hash: h, n: 1, mark: mark})
					break
				}
				if v := &vals[id-1]; v.hash == h && v.val == f {
					if v.mark != mark {
						v.n++
						v.mark = mark
						occ = append(occ, fieldOcc{id: id - 1, off: uint32(i)})
					}
					break
				}
			}
		}
	}
	sc.vals, sc.occ = vals, occ
}

// index lays the interned values' postings and probe table out.
func (sc *fieldScratch) index() *fieldIndex {
	vals := sc.vals
	if len(vals) == 0 {
		return noFields
	}
	fields := make([]fieldPosting, len(vals))
	lo := uint32(0)
	for id := range vals {
		fields[id] = fieldPosting{val: vals[id].val, lo: lo, hi: lo}
		lo += vals[id].n
	}
	arena := make([]uint16, int(lo)+tableSize(len(vals)))
	offs, table := arena[:lo:lo], arena[lo:]
	for _, o := range sc.occ {
		f := &fields[o.id]
		offs[f.hi] = uint16(o.off)
		f.hi++
	}
	mask := uint64(len(table) - 1)
	for id := range vals {
		p := vals[id].hash & mask
		for table[p] != 0 {
			p = (p + 1) & mask
		}
		table[p] = uint16(id) + 1
	}
	return &fieldIndex{fields: fields, offs: offs, table: table}
}

// at returns the offsets of the entries carrying the i-th field.
func (x *fieldIndex) at(i int) []uint16 {
	f := &x.fields[i]
	return x.offs[f.lo:f.hi]
}

// postings returns the offsets of the entries carrying the field val,
// whose hash under fieldHashSeed is h.
//
//pwlint:noalloc
func (x *fieldIndex) postings(val string, h uint64) []uint16 {
	if len(x.table) == 0 {
		return nil
	}
	mask := uint64(len(x.table) - 1)
	for p := h & mask; ; p = (p + 1) & mask {
		id := x.table[p]
		if id == 0 {
			return nil
		}
		if x.fields[id-1].val == val {
			return x.at(int(id) - 1)
		}
	}
}

// equal reports whether x and y index the same fields, in the same order,
// at the same offsets.
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

// bucket is the cell a row's field index is published in. It is shared
// by the views that share its row and by every version of the row whose
// entries keep their offsets: an update replaces one entry in place and
// keeps the bucket, whatever it changes (see insertView).
type bucket struct {
	// index holds the newest field index published for any row over
	// this bucket, nil before. Readers build it lazily on the first
	// field query touching the row; the writer never builds. A row
	// trusts the index only when its gen is the row's own.
	index atomic.Pointer[fieldIndex]
}

// row is one row of a view's bucket table: an immutable run of
// consecutive (ID-sorted) entries, the bucket holding their field index
// cell, the generation of their infos, where the entries start in this
// view's global order, and the smallest and largest level among them
// (rows are never empty). Views share entry slices and buckets and never
// mutate them. Two versions of a row over one bucket have the same gen
// exactly when their entries carry the same infos: an update that
// changes an info bumps it.
type row struct {
	ents []Entry
	*bucket
	gen                uint64
	start              int32 // global index of ents[0]
	minLevel, maxLevel uint8
}

// newRow makes a row of a fresh bucket over an ID-sorted entry slice,
// which the row owns afterwards.
func newRow(ents []Entry) row {
	r := row{ents: ents, bucket: new(bucket)}
	r.minLevel, r.maxLevel = levelRange(ents)
	return r
}

// levelRange returns the smallest and largest level in a non-empty entry
// slice.
func levelRange(ents []Entry) (lo, hi uint8) {
	lo, hi = ents[0].Level, ents[0].Level
	for i := 1; i < len(ents); i++ {
		lo, hi = min(lo, ents[i].Level), max(hi, ents[i].Level)
	}
	return lo, hi
}

// covers reports whether the row's level range includes l, that is,
// whether an entry at level l may lie in the row.
//
//pwlint:noalloc
func (r *row) covers(l int) bool { return int(r.minLevel) <= l && l <= int(r.maxLevel) }

// fields returns the row's field index, building it if the bucket's cell
// holds none of this row's generation. Safe for concurrent readers:
// racing builds of one generation are equal, and a build is published
// only into an empty cell or over an older generation's index, so a
// reader of a stale view never evicts a newer view's index; it uses its
// own build instead.
func (r *row) fields() *fieldIndex {
	cur := r.index.Load()
	if cur != nil && cur.gen == r.gen {
		return cur
	}
	x := buildFieldIndex(r.ents)
	if r.gen != 0 {
		if x == noFields {
			x = &fieldIndex{}
		}
		x.gen = r.gen
	}
	for cur == nil || cur.gen < r.gen {
		if r.index.CompareAndSwap(cur, x) {
			return x
		}
		if cur = r.index.Load(); cur.gen == r.gen {
			return cur
		}
	}
	return x
}

// find returns the offset of id within the row and whether it is present.
//
//pwlint:noalloc
func (r *row) find(id nodeid.ID) (int, bool) {
	i := sort.Search(len(r.ents), func(i int) bool {
		return !r.ents[i].ID.Less(id)
	})
	if i < len(r.ents) && r.ents[i].ID == id {
		return i, true
	}
	return i, false
}

// View is an immutable snapshot of one node's window at a single epoch.
// All methods are safe for concurrent use by any number of goroutines, and
// none of them blocks or observes later protocol activity: a View never
// changes after it is published.
type View struct {
	epoch    uint64
	total    int
	minLevel int // smallest level present, -1 if empty
	rows     []row
	inline   [2]row // backs rows when the table has at most two
}

// emptyView is the epoch-0 snapshot shared by all fresh stores.
func emptyView() *View { return &View{minLevel: -1} }

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
	ri := sort.Search(len(v.rows), func(r int) bool { return int(v.rows[r].start) > i }) - 1
	r := &v.rows[ri]
	return r.ents[i-int(r.start)]
}

// rowFor returns the index of the row that does or would contain id.
//
//pwlint:noalloc
func (v *View) rowFor(id nodeid.ID) int {
	ri := sort.Search(len(v.rows), func(r int) bool {
		return id.Less(v.rows[r].ents[0].ID)
	}) - 1
	if ri < 0 {
		ri = 0
	}
	return ri
}

// Get returns the entry with the given ID, if present. O(log N).
//
//pwlint:noalloc
func (v *View) Get(id nodeid.ID) (Entry, bool) {
	if v.total == 0 {
		return Entry{}, false
	}
	r := &v.rows[v.rowFor(id)]
	if off, ok := r.find(id); ok {
		return r.ents[off], true
	}
	return Entry{}, false
}

// Each calls fn for every entry in ascending ID order until fn returns
// false. It performs no allocations.
//
//pwlint:noalloc
func (v *View) Each(fn func(Entry) bool) {
	for ri := range v.rows {
		ents := v.rows[ri].ents
		for i := range ents {
			if !fn(ents[i]) {
				return
			}
		}
	}
}

// Entries returns a fresh slice of all entries in ascending ID order.
func (v *View) Entries() []Entry {
	out := make([]Entry, 0, v.total)
	for ri := range v.rows {
		out = append(out, v.rows[ri].ents...)
	}
	return out
}

// MinLevel returns the smallest level present in the snapshot, or -1 if the
// snapshot is empty. O(1): the view caches it at publish.
//
//pwlint:noalloc
func (v *View) MinLevel() int { return v.minLevel }

// CountAtLevel returns the number of entries whose level equals l. It
// scans the entries of the rows whose level range covers l.
//
//pwlint:noalloc
func (v *View) CountAtLevel(l int) int {
	n := 0
	for ri := range v.rows {
		r := &v.rows[ri]
		if !r.covers(l) {
			continue
		}
		for i := range r.ents {
			if int(r.ents[i].Level) == l {
				n++
			}
		}
	}
	return n
}

// Strongest returns up to k entries ordered by ascending level (the paper's
// "powerful node" ordering — lower level means the node holds a larger
// window), breaking level ties by ascending ID. This is exactly the order a
// stable sort by level over the ID-sorted window produces. It walks the
// levels up from MinLevel and, at each, scans only the rows whose level
// range covers it, stopping at the k-th entry: no sort, and at the
// commonest levels only the first rows are touched.
func (v *View) Strongest(k int) []Entry {
	if k > v.total {
		k = v.total
	}
	if k <= 0 {
		return nil
	}
	out := make([]Entry, 0, k)
	for l := v.minLevel; l <= math.MaxUint8; l++ {
		for ri := range v.rows {
			r := &v.rows[ri]
			if !r.covers(l) {
				continue
			}
			for i := range r.ents {
				if int(r.ents[i].Level) == l {
					out = append(out, r.ents[i])
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
// ';'-separated field val (e.g. "os=linux"), in ascending ID order. It
// hashes val once and probes each bucket's field index table: O(B + k)
// where B is the bucket count and k the hits — it never scans entries
// that do not match.
func (v *View) WithField(val string) []Entry {
	// Two passes, count then fill, so the result is allocated once at its
	// exact size.
	h := maphash.String(fieldHashSeed, val)
	n := 0
	for _, r := range v.rows {
		n += len(r.fields().postings(val, h))
	}
	if n == 0 {
		return nil
	}
	out := make([]Entry, 0, n)
	for _, r := range v.rows {
		for _, off := range r.fields().postings(val, h) {
			out = append(out, r.ents[off])
		}
	}
	return out
}

// InfoContains returns all entries whose attached info contains substr, in
// ascending ID order: a strings.Contains scan of every entry, matching
// Window.InfoContains. The empty substring matches every entry.
func (v *View) InfoContains(substr string) []Entry {
	var out []Entry
	for _, r := range v.rows {
		for i := range r.ents {
			if strings.Contains(r.ents[i].info, substr) {
				out = append(out, r.ents[i])
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
	for _, r := range v.rows {
		for i := range r.ents {
			if pred(r.ents[i]) {
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
	for _, r := range v.rows {
		for i := range r.ents {
			s, ok := score(r.ents[i])
			if ok {
				c := scored{s: s, idx: idx, e: r.ents[i]}
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
	slices.SortFunc(h, func(a, b scored) int {
		if c := cmp.Compare(b.s, a.s); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
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
	for _, r := range v.rows {
		for i := range r.ents {
			e := &r.ents[i]
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
