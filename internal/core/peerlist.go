package core

import (
	"peerwindow/internal/des"
	"peerwindow/internal/nodeid"
	"peerwindow/internal/wire"
	"peerwindow/internal/xrand"
)

// peerSlot is one stored peer-list entry: the pointer's fixed fields
// plus the timestamps the refresh mechanism (§4.6) and lifetime
// measurement need, in 48 bytes. A pointer's Info — empty for most
// nodes — lives out of line in PeerList.info, so the slot carries no
// slice header; §3 keeps pointers small because "large pointers will
// finally deflate the peer lists".
type peerSlot struct {
	id        nodeid.ID
	addr      wire.Addr
	firstSeen des.Time // when we first learned of this node (lifetime measurement)
	lastSeen  des.Time // last event/refresh mentioning it (expiry)
	level     uint8
	hasInfo   bool // the pointer's non-empty Info is in PeerList.info
}

// removedPeer is what the removal paths hand back: the full pointer and
// when it was first seen, for lifetime measurement.
type removedPeer struct {
	ptr       wire.Pointer
	firstSeen des.Time
}

// Leaf layout. A peer list holds about N/2^l pointers, a thousand and
// more at Fig 9's scales, and every join or leave inserts or removes one
// of them, so a mutation must not move the whole list.
const (
	// leafCap is the number of slots in one leaf: 64 × 48 B = 3 KB, the
	// most one insert or remove moves.
	leafCap = 64
	// buildFill is how many slots each leaf gets when a sorted batch
	// fills an empty list: 15/16 of leafCap, so the inserts that follow
	// a download find room instead of splitting every leaf at once.
	buildFill = leafCap - leafCap/16
	// spreadWindow is how many adjacent leaves an insert into a full
	// leaf may spread entries over before it adds a leaf.
	spreadWindow = 4
	// leafBatch is the most leaves one allocation holds: 8 leaves are
	// 24 KB, a whole number of 8 KB pages, where a larger array would be
	// rounded up to whole pages and waste up to 7 KB.
	leafBatch = 8
)

// leaf is the storage of one sorted run of peer-list slots.
type leaf [leafCap]peerSlot

// leafRef is one PeerList directory entry: a leaf, how many entries it
// holds, the running count through it and its last ID, so that finding
// an ID or a global index is a binary search over the directory and then
// one inside a leaf.
type leafRef struct {
	s    *leaf
	n    int32     // entries held, in s[:n]; the slots past n are zero
	end  int32     // entries in this leaf and every earlier one
	last nodeid.ID // s[n-1].id
}

// PeerList is the node's collection of pointers, kept sorted by nodeId so
// that ring successors and prefix ranges — the two access patterns the
// protocol needs — are binary searches. The sorted sequence is stored as
// leaves of at most leafCap slots, so an insert or a remove moves one
// leaf instead of the whole list; global indices (At, StrongestForStep's
// rotation) count entries in ID order across leaves.
// The zero PeerList is empty and ready to use. It is not safe for
// concurrent use; the owning Node serializes access.
type PeerList struct {
	// dir lists the leaves in ID order. No leaf is empty, and IDs ascend
	// within and across leaves.
	dir []leafRef
	// spare is a freed leaf (all zero) kept for the next leaf the list
	// needs, or nil.
	spare *leaf
	// info holds the non-empty Info of exactly the slots flagged
	// hasInfo, keyed by ID. It stays nil until a held pointer carries
	// info.
	info map[nodeid.ID][]byte
	// levels counts entries per level so MinLevel — the "is there anyone
	// stronger than me" question behind top-node checks — is O(1).
	levels [nodeid.Bits + 1]int32
}

// pointer rebuilds the full pointer stored in s.
//
//pwlint:noalloc
func (pl *PeerList) pointer(s *peerSlot) wire.Pointer {
	p := wire.Pointer{Addr: s.addr, ID: s.id, Level: s.level}
	if s.hasInfo {
		p.Info = pl.info[s.id]
	}
	return p
}

// store writes p's address, level and info into s, whose ID is p.ID,
// keeping the info table exact.
//
//pwlint:noalloc
func (pl *PeerList) store(s *peerSlot, p wire.Pointer) {
	s.addr, s.level = p.Addr, p.Level
	switch {
	case len(p.Info) > 0:
		pl.info = withInfo(pl.info, p.ID, p.Info) //pwlint:allow noalloc a new ID grows the info table; only pointers carrying info reach here
		s.hasInfo = true
	case s.hasInfo:
		delete(pl.info, p.ID)
		s.hasInfo = false
	}
}

// withInfo returns t with id mapped to info, creating t on first use.
func withInfo(t map[nodeid.ID][]byte, id nodeid.ID, info []byte) map[nodeid.ID][]byte {
	if t == nil {
		t = make(map[nodeid.ID][]byte)
	}
	t[id] = info
	return t
}

// removed packages slot s for a removal path and drops its info.
func (pl *PeerList) removed(s *peerSlot) removedPeer {
	r := removedPeer{ptr: pl.pointer(s), firstSeen: s.firstSeen}
	if s.hasInfo {
		delete(pl.info, s.id)
	}
	return r
}

// Len returns the number of pointers held.
func (pl *PeerList) Len() int {
	if len(pl.dir) == 0 {
		return 0
	}
	return int(pl.dir[len(pl.dir)-1].end)
}

// slots returns leaf k's entries.
func (pl *PeerList) slots(k int) []peerSlot {
	r := &pl.dir[k]
	return r.s[:r.n]
}

// start returns the global index of leaf k's first entry.
func (pl *PeerList) start(k int) int {
	r := &pl.dir[k]
	return int(r.end - r.n)
}

// leafOf returns the leaf holding global index i, or the last leaf when i
// is past the end.
func (pl *PeerList) leafOf(i int) int {
	lo, hi := 0, len(pl.dir)-1
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if int(pl.dir[m].end) > i {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// slotAt returns the entry at global index i; it panics when i is out of
// range.
func (pl *PeerList) slotAt(i int) *peerSlot {
	k := pl.leafOf(i)
	return &pl.slots(k)[i-pl.start(k)]
}

// locate returns where the first entry with ID >= id is, or would be
// inserted: leaf k and position j in it. Past every entry it is the end
// of the last leaf. The list must not be empty.
func (pl *PeerList) locate(id nodeid.ID) (k, j int) {
	lo, hi := 0, len(pl.dir)-1
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if pl.dir[m].last.Less(id) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	s := pl.slots(lo)
	a, b := 0, len(s)
	for a < b {
		m := int(uint(a+b) >> 1)
		if s[m].id.Less(id) {
			a = m + 1
		} else {
			b = m
		}
	}
	return lo, a
}

// find is locate that also reports whether id is held there; on an empty
// list it returns (0, 0, false).
func (pl *PeerList) find(id nodeid.ID) (k, j int, held bool) {
	if len(pl.dir) == 0 {
		return 0, 0, false
	}
	k, j = pl.locate(id)
	return k, j, j < int(pl.dir[k].n) && pl.dir[k].s[j].id == id
}

// search returns the global index of the first entry with ID >= id.
func (pl *PeerList) search(id nodeid.ID) int {
	if len(pl.dir) == 0 {
		return 0
	}
	k, j := pl.locate(id)
	return pl.start(k) + j
}

// addLeaves inserts m empty leaves into the directory at position at,
// taking the spare first and the rest from fresh backing arrays of at
// most leafBatch leaves.
func (pl *PeerList) addLeaves(at, m int) {
	end := int32(0)
	if at > 0 {
		end = pl.dir[at-1].end
	}
	pl.dir = append(pl.dir, make([]leafRef, m)...)
	copy(pl.dir[at+m:], pl.dir[at:])
	var fresh []leaf
	for i := at; i < at+m; i++ {
		s := pl.spare
		pl.spare = nil
		if s == nil {
			if len(fresh) == 0 {
				fresh = make([]leaf, min(at+m-i, leafBatch)) //pwlint:allow noalloc leaf-pool miss: the list outgrew its leaves and holds no spare
			}
			s, fresh = &fresh[0], fresh[1:]
		}
		pl.dir[i] = leafRef{s: s, end: end}
	}
}

// dropLeaf removes the empty leaf k from the directory, keeping it as the
// spare when there is none.
func (pl *PeerList) dropLeaf(k int) {
	if pl.spare == nil {
		pl.spare = pl.dir[k].s
	}
	copy(pl.dir[k:], pl.dir[k+1:])
	pl.dir[len(pl.dir)-1] = leafRef{}
	pl.dir = pl.dir[:len(pl.dir)-1]
}

// insertAt puts s at position j of leaf k, which has room.
func (pl *PeerList) insertAt(k, j int, s peerSlot) {
	r := &pl.dir[k]
	copy(r.s[j+1:r.n+1], r.s[j:r.n])
	r.s[j] = s
	r.n++
	if j == int(r.n)-1 {
		r.last = s.id
	}
	for i := k; i < len(pl.dir); i++ {
		pl.dir[i].end++
	}
}

// removeAt deletes position j of leaf k, dropping the leaf if it is left
// empty. A thinned leaf stays as it is, as a slice keeps its capacity:
// the list is as large as it has been, and inserts refill it.
func (pl *PeerList) removeAt(k, j int) {
	r := &pl.dir[k]
	copy(r.s[j:r.n-1], r.s[j+1:r.n])
	r.n--
	r.s[r.n] = peerSlot{}
	for i := k; i < len(pl.dir); i++ {
		pl.dir[i].end--
	}
	if r.n == 0 {
		pl.dropLeaf(k)
		return
	}
	r.last = r.s[r.n-1].id
}

// room returns where to insert id, found by locate at (k, j), after
// making sure that leaf has a free slot. A full leaf spreads its entries
// over up to spreadWindow neighbours when they have a free slot per leaf
// between them, and otherwise over those leaves plus a new one; an insert
// past the end of a full last leaf starts a new leaf, so ascending
// inserts fill leaves completely.
func (pl *PeerList) room(k, j int, id nodeid.ID) (int, int) {
	switch {
	case len(pl.dir) == 0:
		pl.addLeaves(0, 1)
		return 0, 0
	case pl.dir[k].n < leafCap:
		return k, j
	case k == len(pl.dir)-1 && j == leafCap:
		pl.addLeaves(k+1, 1)
		return k + 1, 0
	}
	a, b, free := k, k, 0
	for b-a+1 < spreadWindow && free < b-a+1 {
		if b+1 < len(pl.dir) && (a == 0 || pl.dir[b+1].n <= pl.dir[a-1].n) {
			b++
			free += leafCap - int(pl.dir[b].n)
		} else if a > 0 {
			a--
			free += leafCap - int(pl.dir[a].n)
		} else {
			break
		}
	}
	if free < b-a+1 {
		pl.addLeaves(b+1, 1)
		b++
	}
	pl.spread(a, b)
	return pl.locate(id)
}

// spread deals the entries of leaves a..b — at most spreadWindow leaves'
// worth — out evenly over those leaves, in order.
func (pl *PeerList) spread(a, b int) {
	var buf [spreadWindow * leafCap]peerSlot
	base, t := pl.start(a), 0
	for i := a; i <= b; i++ {
		r := &pl.dir[i]
		t += copy(buf[t:], r.s[:r.n])
		clear(r.s[:r.n])
	}
	w, from := b-a+1, 0
	for i := a; i <= b; i++ {
		to := t * (i - a + 1) / w
		r := &pl.dir[i]
		r.n = int32(copy(r.s[:], buf[from:to]))
		r.end = int32(base + to)
		r.last = r.s[r.n-1].id
		from = to
	}
}

// Lookup returns the pointer for id, if present.
//
//pwlint:noalloc
func (pl *PeerList) Lookup(id nodeid.ID) (wire.Pointer, bool) {
	if k, j, held := pl.find(id); held {
		return pl.pointer(&pl.dir[k].s[j]), true
	}
	return wire.Pointer{}, false
}

// Upsert inserts the pointer or updates it in place, returning true when
// the pointer was new. Updates refresh lastSeen but preserve firstSeen,
// so lifetime measurement spans the node's whole observed life.
//
//pwlint:noalloc
func (pl *PeerList) Upsert(p wire.Pointer, now des.Time) bool {
	k, j, held := pl.find(p.ID)
	if held {
		pl.update(&pl.dir[k].s[j], p, now)
		return false
	}
	k, j = pl.room(k, j, p.ID)
	pl.insertAt(k, j, peerSlot{id: p.ID, firstSeen: now, lastSeen: now})
	pl.store(&pl.dir[k].s[j], p)
	pl.levels[p.Level]++
	return true
}

// update overwrites the held entry s with p, whose ID it is, as seen at
// now.
func (pl *PeerList) update(s *peerSlot, p wire.Pointer, now des.Time) {
	pl.levels[s.level]--
	pl.levels[p.Level]++
	pl.store(s, p)
	s.lastSeen = now
}

// MergeSorted merges ps — pointers in strictly ascending ID order — into
// the list. It is the application path for peer-list downloads (join
// step 3, level raising, reconcile, Restore), whose batches arrive
// already sorted. Existing entries are updated in place, preserving
// firstSeen and refreshing lastSeen, exactly as Upsert would. onNew, if
// not nil, is called once per newly inserted pointer; onUpdate, if not
// nil, is called once per existing entry whose stored pointer actually
// changed (same ID, different level, address or info — bit-identical
// upserts are suppressed). In the sorted path updates fire first, then
// insertions, each in ascending ID order, as the merge goes: each call
// sees a consistent list that may not hold the rest of the batch yet.
// It returns the number of new entries. A batch that is not strictly sorted falls back
// to per-entry Upsert — callbacks then fire per entry, in batch order —
// so callers feeding network-supplied batches keep Upsert semantics in
// the worst case rather than corrupting the list.
//
// The path follows the traffic: a download into an empty list (join,
// warm start) builds the leaves in one pass, and one into a held list
// (reconcile) is mostly updates, so a first pass updates held entries in
// place and a second inserts the new IDs only when there are any.
//
//pwlint:noalloc
func (pl *PeerList) MergeSorted(ps []wire.Pointer, now des.Time, onNew func(wire.Pointer), onUpdate func(old, new wire.Pointer)) int {
	for k := 1; k < len(ps); k++ {
		if !ps[k-1].ID.Less(ps[k].ID) {
			added := 0
			for _, p := range ps {
				old, _ := pl.Lookup(p.ID)
				switch {
				case pl.Upsert(p, now):
					added++
					if onNew != nil {
						onNew(p)
					}
				case onUpdate != nil && !old.Equal(p):
					onUpdate(old, p)
				}
			}
			return added
		}
	}
	if len(ps) > 0 && len(pl.dir) == 0 {
		pl.build(ps, now)
		if onNew != nil {
			for _, p := range ps {
				onNew(p)
			}
		}
		return len(ps)
	}
	fresh := 0
	for _, p := range ps {
		k, j, held := pl.find(p.ID)
		if !held {
			fresh++
			continue
		}
		s := &pl.dir[k].s[j]
		old := pl.pointer(s)
		pl.update(s, p, now)
		if onUpdate != nil && !old.Equal(p) {
			onUpdate(old, p)
		}
	}
	if fresh > 0 {
		for _, p := range ps {
			if pl.Upsert(p, now) && onNew != nil {
				onNew(p)
			}
		}
	}
	return fresh
}

// build fills the empty list with ps, in strictly ascending ID order,
// spread evenly over as few leaves as keep each at or below buildFill.
func (pl *PeerList) build(ps []wire.Pointer, now des.Time) {
	t := len(ps)
	q := (t + buildFill - 1) / buildFill
	pl.addLeaves(0, q)
	from := 0
	for i := range pl.dir {
		r, to := &pl.dir[i], t*(i+1)/q
		for j, p := range ps[from:to] {
			r.s[j] = peerSlot{id: p.ID, firstSeen: now, lastSeen: now}
			pl.store(&r.s[j], p)
			pl.levels[p.Level]++
		}
		r.n, r.end, r.last = int32(to-from), int32(to), ps[to-1].ID
		from = to
	}
}

// MinLevel returns the smallest level among held pointers, or -1 when the
// list is empty. A node is a top node of its part exactly when MinLevel
// is -1 or not smaller than its own level (§4.4).
//
//pwlint:noalloc
func (pl *PeerList) MinLevel() int {
	for l := range pl.levels {
		if pl.levels[l] > 0 {
			return l
		}
	}
	return -1
}

// Strongest returns the first pointer (in ID order) at the minimum level,
// if any. It scans from the first entry; only the report, escalation and
// level-raise paths ask (§4.3–§4.5), a few times per node-minute.
//
//pwlint:noalloc
func (pl *PeerList) Strongest() (wire.Pointer, bool) {
	min := pl.MinLevel()
	for k := range pl.dir {
		s := pl.slots(k)
		for j := range s {
			if int(s[j].level) == min {
				return pl.pointer(&s[j]), true
			}
		}
	}
	return wire.Pointer{}, false
}

// Remove deletes id, returning the removed pointer and whether it existed.
func (pl *PeerList) Remove(id nodeid.ID) (removedPeer, bool) {
	k, j, held := pl.find(id)
	if !held {
		return removedPeer{}, false
	}
	r := pl.removed(&pl.dir[k].s[j])
	pl.removeAt(k, j)
	pl.levels[r.ptr.Level]--
	return r, true
}

// Successor returns the first pointer clockwise of id (strictly greater,
// wrapping at the top of the ring) that satisfies keep. It returns false
// when no entry satisfies keep. This is the §4.1 "right neighbour in the
// circle" query, with keep selecting the caller's eigenstring group.
func (pl *PeerList) Successor(id nodeid.ID, keep func(wire.Pointer) bool) (wire.Pointer, bool) {
	n := pl.Len()
	if n == 0 {
		return wire.Pointer{}, false
	}
	k, j := pl.locate(id)
	for c := 0; c < n; c++ {
		if j == int(pl.dir[k].n) {
			k, j = (k+1)%len(pl.dir), 0
		}
		s := &pl.dir[k].s[j]
		j++
		if s.id == id {
			continue
		}
		if p := pl.pointer(s); keep == nil || keep(p) {
			return p, true
		}
	}
	return wire.Pointer{}, false
}

// prefixRange returns the half-open global index range [lo, hi) of
// entries whose IDs start with the given eigenstring.
func (pl *PeerList) prefixRange(e nodeid.Eigenstring) (lo, hi int) {
	if e.Len == 0 {
		return 0, pl.Len()
	}
	lo = pl.search(e.Prefix)
	// Upper bound: first ID beyond the prefix subtree. The subtree spans
	// 2^(128-Len) IDs starting at the (zero-padded) prefix.
	upper := e.Prefix.Add(nodeid.ID{}.WithBit(e.Len-1, 1))
	if upper.IsZero() {
		// Wrapped past the top of the space: range extends to the end.
		return lo, pl.Len()
	}
	return lo, pl.search(upper)
}

// walk calls fn on the entries at global indices [lo, hi), in order.
func (pl *PeerList) walk(lo, hi int, fn func(s *peerSlot)) {
	if lo >= hi {
		return
	}
	k := pl.leafOf(lo)
	j := lo - pl.start(k)
	for i := lo; i < hi; i++ {
		if j == int(pl.dir[k].n) {
			k, j = k+1, 0
		}
		fn(&pl.dir[k].s[j])
		j++
	}
}

// InPrefix returns copies of all pointers whose IDs match the
// eigenstring, in ID order. It serves MsgPeerListReq (join step 3 and
// level raising).
func (pl *PeerList) InPrefix(e nodeid.Eigenstring) []wire.Pointer {
	lo, hi := pl.prefixRange(e)
	if lo >= hi {
		return nil
	}
	out := make([]wire.Pointer, 0, hi-lo)
	pl.walk(lo, hi, func(s *peerSlot) { out = append(out, pl.pointer(s)) })
	return out
}

// CountInPrefix returns how many held pointers match the eigenstring.
func (pl *PeerList) CountInPrefix(e nodeid.Eigenstring) int {
	lo, hi := pl.prefixRange(e)
	if hi < lo {
		return 0
	}
	return hi - lo
}

// DropOutsidePrefix removes every pointer whose ID does not match the
// eigenstring, returning the removed pointers. A node lowering its level
// uses it to shed the now-out-of-scope half of its list (§4.3).
func (pl *PeerList) DropOutsidePrefix(e nodeid.Eigenstring) []removedPeer {
	lo, hi := pl.prefixRange(e)
	n := pl.Len()
	if lo == 0 && hi == n {
		return nil
	}
	dropped := make([]removedPeer, 0, n-(hi-lo))
	drop := func(s *peerSlot) {
		pl.levels[s.level]--
		dropped = append(dropped, pl.removed(s))
	}
	pl.walk(0, lo, drop)
	pl.walk(hi, n, drop)
	pl.keep(lo, hi)
	return dropped
}

// keep cuts the list down to the entries at global indices [lo, hi):
// the leaves outside go (one becomes the spare) and the two boundary
// leaves are trimmed.
func (pl *PeerList) keep(lo, hi int) {
	first, last := 0, -1 // kept leaves
	if lo < hi {
		first, last = pl.leafOf(lo), pl.leafOf(hi-1)
		head, tail := lo-pl.start(first), hi-pl.start(last)
		r := &pl.dir[last]
		clear(r.s[tail:r.n])
		r.n = int32(tail)
		r = &pl.dir[first]
		copy(r.s[:], r.s[head:r.n])
		clear(r.s[int(r.n)-head : r.n])
		r.n -= int32(head)
	}
	for k := range pl.dir {
		if (k < first || k > last) && pl.spare == nil {
			pl.spare = pl.dir[k].s
			clear(pl.spare[:])
		}
	}
	kept := copy(pl.dir, pl.dir[first:last+1])
	clear(pl.dir[kept:])
	pl.dir = pl.dir[:kept]
	end := int32(0)
	for k := range pl.dir {
		r := &pl.dir[k]
		end += r.n
		r.end = end
		r.last = r.s[r.n-1].id
	}
}

// ForEach visits every entry in ID order; the visitor must not mutate the
// list.
func (pl *PeerList) ForEach(fn func(p wire.Pointer, firstSeen, lastSeen des.Time)) {
	pl.walk(0, pl.Len(), func(s *peerSlot) { fn(pl.pointer(s), s.firstSeen, s.lastSeen) })
}

// At returns the i-th pointer in ID order; it panics when out of range.
func (pl *PeerList) At(i int) wire.Pointer { return pl.pointer(pl.slotAt(i)) }

// Pointers returns a copy of all pointers in ID order.
func (pl *PeerList) Pointers() []wire.Pointer {
	out := make([]wire.Pointer, 0, pl.Len())
	pl.walk(0, pl.Len(), func(s *peerSlot) { out = append(out, pl.pointer(s)) })
	return out
}

// StrongestForStep finds the multicast target for step s of figure 4: an
// audience member of subject whose ID shares the first s bits of selfID
// and differs at bit s, preferring the highest level (smallest level
// value). IDs in the skip set (targets that already failed this step)
// are excluded. See strongestIn for how ties resolve.
func (pl *PeerList) StrongestForStep(selfID nodeid.ID, s int, subject nodeid.ID, skip map[nodeid.ID]bool, rng *xrand.Source) (wire.Pointer, bool) {
	if s >= nodeid.Bits {
		return wire.Pointer{}, false
	}
	// Candidates occupy the contiguous ID range with prefix
	// selfID[:s] + flipped bit s.
	lo, hi := pl.prefixRange(nodeid.EigenstringOf(selfID.FlipBit(s), s+1))
	return pl.strongestIn(lo, hi, subject, skip, rng)
}

// splitStep splits [lo, hi) — the entries sharing the first s bits of
// selfID — at bit s with one search: [candLo, candHi) differs from
// selfID at bit s (step s's candidates, as StrongestForStep finds them),
// and [nextLo, nextHi) shares bit s too (step s+1's range).
func (pl *PeerList) splitStep(selfID nodeid.ID, s, lo, hi int) (candLo, candHi, nextLo, nextHi int) {
	mid := pl.search(selfID.Prefix(s).WithBit(s, 1))
	if selfID.Bit(s) == 1 {
		return lo, mid, mid, hi
	}
	return mid, hi, lo, mid
}

// strongestIn picks the strongest audience member of subject among the
// entries at global indices [lo, hi), skipping the IDs in skip. The scan
// starts at a random rotation of the range so equal-level ties resolve
// to a random member — this spreads forwarding load across equally
// strong nodes and, crucially, means every stale pointer is eventually
// chosen as a target and cleaned up by the §4.2 no-response rule; a
// deterministic tie-break would let unluckily placed stale entries
// survive forever. A level-0 candidate is globally strongest, so the scan
// stops at the first one it meets — with level-0-dominated ranges (the
// common case) the expected scan is short.
func (pl *PeerList) strongestIn(lo, hi int, subject nodeid.ID, skip map[nodeid.ID]bool, rng *xrand.Source) (wire.Pointer, bool) {
	span := hi - lo
	if span <= 0 {
		return wire.Pointer{}, false
	}
	offset := 0
	if rng != nil && span > 1 {
		offset = rng.Intn(span)
	}
	var best *peerSlot
	bestLevel := 256
	k := pl.leafOf(lo + offset)
	j := lo + offset - pl.start(k)
	for c := 0; c < span; c++ {
		switch {
		case c == span-offset: // past hi: wrap to lo
			k = pl.leafOf(lo)
			j = lo - pl.start(k)
		case j == int(pl.dir[k].n):
			k, j = k+1, 0
		}
		cand := &pl.dir[k].s[j]
		j++
		if int(cand.level) >= bestLevel {
			continue
		}
		if skip != nil && skip[cand.id] {
			continue
		}
		// Audience check: the candidate's eigenstring must be a prefix
		// of the subject's ID.
		if cand.id.Prefix(int(cand.level)) != subject.Prefix(int(cand.level)) {
			continue
		}
		best = cand
		bestLevel = int(cand.level)
		if bestLevel == 0 {
			break
		}
	}
	if best == nil {
		return wire.Pointer{}, false
	}
	return pl.pointer(best), true
}
