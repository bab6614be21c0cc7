package core

import (
	"sort"

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

// PeerList is the node's collection of pointers, kept sorted by nodeId so
// that ring successors and prefix ranges — the two access patterns the
// protocol needs — are binary searches. It is not safe for concurrent
// use; the owning Node serializes access.
type PeerList struct {
	slots []peerSlot
	// info holds the non-empty Info of exactly the slots flagged
	// hasInfo, keyed by ID. It stays nil until a held pointer carries
	// info.
	info map[nodeid.ID][]byte
	// levels counts entries per level so MinLevel — the "is there anyone
	// stronger than me" question behind top-node checks — is O(1).
	levels [nodeid.Bits + 1]int32
	// firstAt[l] is the index of the first entry (in ID order) at level
	// l. It is meaningful only while levels[l] > 0, so the zero PeerList
	// needs no initialization. It makes Strongest — asked on every
	// report and escalation — O(1) instead of a full-list scan.
	firstAt [nodeid.Bits + 1]int32
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

// indexInsert updates the per-level first-index bookkeeping for an entry
// of the given level inserted at position i. Called after the slice
// insertion but before the levels histogram is bumped.
func (pl *PeerList) indexInsert(i int, level uint8) {
	for l := range pl.firstAt {
		if pl.levels[l] > 0 && pl.firstAt[l] >= int32(i) {
			pl.firstAt[l]++
		}
	}
	if pl.levels[level] == 0 || pl.firstAt[level] > int32(i) {
		pl.firstAt[level] = int32(i)
	}
	pl.levels[level]++
}

// indexRemove updates the bookkeeping for an entry of the given level
// removed from position i. Called after the slice deletion.
func (pl *PeerList) indexRemove(i int, level uint8) {
	pl.levels[level]--
	rescan := pl.levels[level] > 0 && pl.firstAt[level] == int32(i)
	for l := range pl.firstAt {
		if pl.levels[l] > 0 && pl.firstAt[l] > int32(i) {
			pl.firstAt[l]--
		}
	}
	if rescan {
		// The removed entry was the first of its level; the next one (if
		// any) can only sit at or after the removal point.
		for j := i; j < len(pl.slots); j++ {
			if pl.slots[j].level == level {
				pl.firstAt[level] = int32(j)
				break
			}
		}
	}
}

// indexRelevel updates the bookkeeping when the entry at position i
// changes level in place (its ID, and hence its position, is unchanged).
func (pl *PeerList) indexRelevel(i int, old, new uint8) {
	if old == new {
		return
	}
	pl.levels[old]--
	if pl.levels[old] > 0 && pl.firstAt[old] == int32(i) {
		for j := i + 1; j < len(pl.slots); j++ {
			if pl.slots[j].level == old {
				pl.firstAt[old] = int32(j)
				break
			}
		}
	}
	if pl.levels[new] == 0 || pl.firstAt[new] > int32(i) {
		pl.firstAt[new] = int32(i)
	}
	pl.levels[new]++
}

// rebuildLevelIndex recomputes levels and firstAt from the entries in
// one pass; the bulk operations (MergeSorted, DropOutsidePrefix) use it
// instead of per-entry maintenance.
func (pl *PeerList) rebuildLevelIndex() {
	pl.levels = [nodeid.Bits + 1]int32{}
	for i := len(pl.slots) - 1; i >= 0; i-- {
		l := pl.slots[i].level
		pl.levels[l]++
		pl.firstAt[l] = int32(i)
	}
}

// Len returns the number of pointers held.
func (pl *PeerList) Len() int { return len(pl.slots) }

// search returns the index of the first entry with ID >= id.
func (pl *PeerList) search(id nodeid.ID) int {
	return sort.Search(len(pl.slots), func(i int) bool {
		return !pl.slots[i].id.Less(id)
	})
}

// Lookup returns the pointer for id, if present.
//
//pwlint:noalloc
func (pl *PeerList) Lookup(id nodeid.ID) (wire.Pointer, bool) {
	i := pl.search(id)
	if i < len(pl.slots) && pl.slots[i].id == id {
		return pl.pointer(&pl.slots[i]), true
	}
	return wire.Pointer{}, false
}

// Upsert inserts the pointer or updates it in place, returning true when
// the pointer was new. Updates refresh lastSeen but preserve firstSeen,
// so lifetime measurement spans the node's whole observed life. The
// slots append is the amortized self-append builder.
//
//pwlint:noalloc
func (pl *PeerList) Upsert(p wire.Pointer, now des.Time) bool {
	i := pl.search(p.ID)
	if i < len(pl.slots) && pl.slots[i].id == p.ID {
		s := &pl.slots[i]
		old := s.level
		pl.store(s, p)
		s.lastSeen = now
		pl.indexRelevel(i, old, p.Level)
		return false
	}
	pl.slots = append(pl.slots, peerSlot{})
	copy(pl.slots[i+1:], pl.slots[i:])
	pl.slots[i] = peerSlot{id: p.ID, firstSeen: now, lastSeen: now}
	pl.store(&pl.slots[i], p)
	pl.indexInsert(i, p.Level)
	return true
}

// MergeSorted merges ps — pointers in strictly ascending ID order — into
// the list in one O(N+M) pass, against the O(N·M) of per-entry Upsert.
// It is the application path for peer-list downloads (join step 3, level
// raising, reconcile, Restore), whose batches arrive already sorted.
// Existing entries are updated in place, preserving firstSeen and
// refreshing lastSeen, exactly as Upsert would; the levels histogram and
// level index stay consistent. onNew, if not nil, is called once per
// newly inserted pointer; onUpdate, if not nil, is called once per
// existing entry whose stored pointer actually changed (same ID,
// different level, address or info — bit-identical upserts are
// suppressed). In the sorted path both callbacks fire after the whole
// merge completes, updates then insertions, each in ascending ID order
// (the list is safe to read from the callbacks). It returns the number
// of new entries. A batch that is not strictly sorted falls back to
// per-entry Upsert — callbacks then fire per entry, in batch order — so
// callers feeding network-supplied batches keep Upsert semantics in the
// worst case rather than corrupting the list.
//
//pwlint:noalloc
func (pl *PeerList) MergeSorted(ps []wire.Pointer, now des.Time, onNew func(wire.Pointer), onUpdate func(old, new wire.Pointer)) int {
	if len(ps) == 0 {
		return 0
	}
	for k := 1; k < len(ps); k++ {
		if !ps[k-1].ID.Less(ps[k].ID) {
			added := 0
			for _, p := range ps {
				var old wire.Pointer
				var had bool
				if onUpdate != nil {
					old, had = pl.Lookup(p.ID)
				}
				if pl.Upsert(p, now) {
					added++
					if onNew != nil {
						onNew(p)
					}
				} else if onUpdate != nil && had && !old.Equal(p) {
					onUpdate(old, p)
				}
			}
			return added
		}
	}
	n := len(pl.slots)
	// Pass 1: count the IDs not already held, two-pointer over both
	// sorted sequences.
	i, newCount := 0, 0
	for j := range ps {
		for i < n && pl.slots[i].id.Less(ps[j].ID) {
			i++
		}
		if i >= n || pl.slots[i].id != ps[j].ID {
			newCount++
		}
	}
	var added []wire.Pointer
	if onNew != nil && newCount > 0 {
		added = make([]wire.Pointer, 0, newCount) //pwlint:allow noalloc deferred-callback staging buffer, sized once per batch
	}
	type change struct{ old, new wire.Pointer }
	var updated []change
	noteUpdate := func(old, new wire.Pointer) {
		if onUpdate != nil && !old.Equal(new) {
			updated = append(updated, change{old, new})
		}
	}
	if newCount == 0 {
		// Updates only: second two-pointer pass, no entry moves.
		i = 0
		for j := range ps {
			for pl.slots[i].id.Less(ps[j].ID) {
				i++
			}
			s := &pl.slots[i]
			old := pl.pointer(s)
			pl.store(s, ps[j])
			s.lastSeen = now
			pl.indexRelevel(i, old.Level, ps[j].Level)
			noteUpdate(old, ps[j])
		}
		for k := range updated {
			onUpdate(updated[k].old, updated[k].new)
		}
		return 0
	}
	// Pass 2: grow once and merge backwards so existing entries shift at
	// most one position past each insertion — no per-insert O(N) copy.
	// The info table is keyed by ID, so moving a slot leaves it alone.
	pl.slots = append(pl.slots, make([]peerSlot, newCount)...)
	w := n + newCount - 1
	i = n - 1
	for j := len(ps) - 1; j >= 0; {
		switch {
		case i >= 0 && ps[j].ID.Less(pl.slots[i].id):
			pl.slots[w] = pl.slots[i]
			i--
		case i >= 0 && pl.slots[i].id == ps[j].ID:
			s := pl.slots[i]
			noteUpdate(pl.pointer(&s), ps[j])
			pl.store(&s, ps[j])
			s.lastSeen = now
			pl.slots[w] = s
			i--
			j--
		default:
			pl.slots[w] = peerSlot{id: ps[j].ID, firstSeen: now, lastSeen: now}
			pl.store(&pl.slots[w], ps[j])
			if added != nil {
				added = append(added, ps[j])
			}
			j--
		}
		w--
	}
	pl.rebuildLevelIndex()
	for k := len(updated) - 1; k >= 0; k-- {
		onUpdate(updated[k].old, updated[k].new)
	}
	for k := len(added) - 1; k >= 0; k-- {
		onNew(added[k])
	}
	return newCount
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
// if any. The level index answers in O(levels) without scanning entries.
//
//pwlint:noalloc
func (pl *PeerList) Strongest() (wire.Pointer, bool) {
	min := pl.MinLevel()
	if min < 0 {
		return wire.Pointer{}, false
	}
	return pl.pointer(&pl.slots[pl.firstAt[min]]), true
}

// Remove deletes id, returning the removed pointer and whether it existed.
func (pl *PeerList) Remove(id nodeid.ID) (removedPeer, bool) {
	i := pl.search(id)
	if i >= len(pl.slots) || pl.slots[i].id != id {
		return removedPeer{}, false
	}
	r := pl.removed(&pl.slots[i])
	copy(pl.slots[i:], pl.slots[i+1:])
	pl.slots = pl.slots[:len(pl.slots)-1]
	pl.indexRemove(i, r.ptr.Level)
	return r, true
}

// Successor returns the first pointer clockwise of id (strictly greater,
// wrapping at the top of the ring) that satisfies keep. It returns false
// when no entry satisfies keep. This is the §4.1 "right neighbour in the
// circle" query, with keep selecting the caller's eigenstring group.
func (pl *PeerList) Successor(id nodeid.ID, keep func(wire.Pointer) bool) (wire.Pointer, bool) {
	n := len(pl.slots)
	if n == 0 {
		return wire.Pointer{}, false
	}
	start := pl.search(id)
	// Skip id itself if present.
	if start < n && pl.slots[start].id == id {
		start++
	}
	for k := 0; k < n; k++ {
		s := &pl.slots[(start+k)%n]
		if s.id == id {
			continue
		}
		if p := pl.pointer(s); keep == nil || keep(p) {
			return p, true
		}
	}
	return wire.Pointer{}, false
}

// prefixRange returns the half-open index range [lo, hi) of entries whose
// IDs start with the given eigenstring.
func (pl *PeerList) prefixRange(e nodeid.Eigenstring) (lo, hi int) {
	lo = pl.search(e.Prefix)
	if e.Len == 0 {
		return 0, len(pl.slots)
	}
	// Upper bound: first ID beyond the prefix subtree. The subtree spans
	// 2^(128-Len) IDs starting at the (zero-padded) prefix.
	delta := nodeid.ID{}
	bit := e.Len - 1
	delta = delta.WithBit(bit, 1) // 2^(128-Len)
	upper := e.Prefix.Add(delta)
	if upper.IsZero() {
		// Wrapped past the top of the space: range extends to the end.
		return lo, len(pl.slots)
	}
	hi = sort.Search(len(pl.slots), func(i int) bool {
		return !pl.slots[i].id.Less(upper)
	})
	return lo, hi
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
	for i := lo; i < hi; i++ {
		out = append(out, pl.pointer(&pl.slots[i]))
	}
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
	if lo == 0 && hi == len(pl.slots) {
		return nil
	}
	dropped := make([]removedPeer, 0, len(pl.slots)-(hi-lo))
	for i := 0; i < lo; i++ {
		dropped = append(dropped, pl.removed(&pl.slots[i]))
	}
	for i := hi; i < len(pl.slots); i++ {
		dropped = append(dropped, pl.removed(&pl.slots[i]))
	}
	pl.slots = append(pl.slots[:0], pl.slots[lo:hi]...)
	pl.rebuildLevelIndex()
	return dropped
}

// ForEach visits every entry in ID order; the visitor must not mutate the
// list.
func (pl *PeerList) ForEach(fn func(p wire.Pointer, firstSeen, lastSeen des.Time)) {
	for i := range pl.slots {
		s := &pl.slots[i]
		fn(pl.pointer(s), s.firstSeen, s.lastSeen)
	}
}

// At returns the i-th pointer in ID order; it panics when out of range.
func (pl *PeerList) At(i int) wire.Pointer { return pl.pointer(&pl.slots[i]) }

// Pointers returns a copy of all pointers in ID order.
func (pl *PeerList) Pointers() []wire.Pointer {
	out := make([]wire.Pointer, len(pl.slots))
	for i := range pl.slots {
		out[i] = pl.pointer(&pl.slots[i])
	}
	return out
}

// StrongestForStep finds the multicast target for step s of figure 4: an
// audience member of subject whose ID shares the first s bits of selfID
// and differs at bit s, preferring the highest level (smallest level
// value). The scan starts at a random rotation of the candidate range so
// equal-level ties resolve to a random member — this spreads forwarding
// load across equally strong nodes and, crucially, means every stale
// pointer is eventually chosen as a target and cleaned up by the §4.2
// no-response rule; a deterministic tie-break would let unluckily placed
// stale entries survive forever. A level-0 candidate is globally
// strongest, so the scan stops at the first one it meets — with
// level-0-dominated ranges (the common case) the expected scan is short.
// IDs in the skip set (targets that already failed this step) are
// excluded.
func (pl *PeerList) StrongestForStep(selfID nodeid.ID, s int, subject nodeid.ID, skip map[nodeid.ID]bool, rng *xrand.Source) (wire.Pointer, bool) {
	if s >= nodeid.Bits {
		return wire.Pointer{}, false
	}
	// Candidates occupy the contiguous ID range with prefix
	// selfID[:s] + flipped bit s.
	want := nodeid.EigenstringOf(selfID.FlipBit(s), s+1)
	lo, hi := pl.prefixRange(want)
	span := hi - lo
	if span <= 0 {
		return wire.Pointer{}, false
	}
	offset := 0
	if rng != nil && span > 1 {
		offset = rng.Intn(span)
	}
	best := -1
	bestLevel := 256
	for k := 0; k < span; k++ {
		i := lo + offset + k
		if i >= hi {
			i -= span
		}
		c := &pl.slots[i]
		if int(c.level) >= bestLevel {
			continue
		}
		if skip != nil && skip[c.id] {
			continue
		}
		// Audience check: the candidate's eigenstring must be a prefix
		// of the subject's ID.
		if c.id.Prefix(int(c.level)) != subject.Prefix(int(c.level)) {
			continue
		}
		best = i
		bestLevel = int(c.level)
		if bestLevel == 0 {
			break
		}
	}
	if best < 0 {
		return wire.Pointer{}, false
	}
	return pl.pointer(&pl.slots[best]), true
}
