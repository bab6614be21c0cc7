package core

import (
	"slices"

	"peerwindow/internal/des"
	"peerwindow/internal/nodeid"
	"peerwindow/internal/wire"
	"peerwindow/internal/xrand"
)

// removedPeer is what the removal paths hand back: the full pointer and
// when it was first seen, for lifetime measurement.
type removedPeer struct {
	ptr       wire.Pointer
	firstSeen des.Time
}

// chunkRef is one PeerList directory entry: a chunk of shared entries,
// how many it holds, the running count through it and its last ID, so
// that finding an ID or a global index is a binary search over the
// directory and then one inside a chunk.
type chunkRef struct {
	c    *chunk
	n    int32     // c.n
	end  int32     // entries in this chunk and every earlier one
	last nodeid.ID // c.e[c.n-1].id
}

// PeerList is the node's collection of pointers, kept sorted by nodeId so
// that ring successors and prefix ranges — the two access patterns the
// protocol needs — are binary searches. The sorted sequence is stored as
// content-defined chunks of shared entries (see ChunkPool), and the
// list's own timestamps, in the same order, in leaves of its own (see
// stampSeq), so an insert or a remove rewrites one chunk and moves one
// leaf instead of the whole list; global indices (At, strongestIn's
// rotation) count entries in ID order across chunks.
// The zero PeerList is empty and ready to use. It is not safe for
// concurrent use; the owning Node serializes access.
type PeerList struct {
	// dir lists the chunks in ID order. No chunk is empty, IDs ascend
	// within and across chunks, and the chunks are the ones the content
	// rule cuts the sequence into (see cutLen).
	dir []chunkRef
	// stamps holds one stamp per entry, in the same order.
	stamps stampSeq
	// pool stores the chunks: the one a node's Env shares, or one the
	// list makes at its first write.
	pool *ChunkPool
	// info holds the non-empty Info of exactly the entries flagged
	// hasInfo, keyed by ID. It stays nil until a held pointer carries
	// info.
	info map[nodeid.ID][]byte
}

// writer returns the pool the list's edits go through, making one on the
// first write to a list no pool was given.
//
//pwlint:noalloc
func (pl *PeerList) writer() *ChunkPool {
	if pl.pool == nil {
		pl.pool = &ChunkPool{} //pwlint:allow noalloc a list no Env gave a pool makes its own at its first write
	}
	return pl.pool
}

// pointer rebuilds the full pointer stored in e.
//
//pwlint:noalloc
func (pl *PeerList) pointer(e *entry) wire.Pointer {
	p := wire.Pointer{Addr: e.addr, ID: e.id, Level: e.level}
	if e.hasInfo {
		p.Info = pl.info[e.id]
	}
	return p
}

// entryOf returns the shared part of p.
func entryOf(p wire.Pointer) entry {
	return entry{id: p.ID, addr: p.Addr, level: p.Level, hasInfo: len(p.Info) > 0}
}

// storeInfo keeps the info table exact for p, whose entry had info when
// had is set.
//
//pwlint:noalloc
func (pl *PeerList) storeInfo(p wire.Pointer, had bool) {
	switch {
	case len(p.Info) > 0:
		pl.info = withInfo(pl.info, p.ID, p.Info) //pwlint:allow noalloc a new ID grows the info table; only pointers carrying info reach here
	case had:
		delete(pl.info, p.ID)
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

// removed packages entry e, stamped s, for a removal path, and drops its
// info.
func (pl *PeerList) removed(e *entry, s *stamp) removedPeer {
	out := removedPeer{ptr: pl.pointer(e), firstSeen: s.firstSeen}
	if e.hasInfo {
		delete(pl.info, e.id)
	}
	return out
}

// Len returns the number of pointers held.
func (pl *PeerList) Len() int {
	if len(pl.dir) == 0 {
		return 0
	}
	return int(pl.dir[len(pl.dir)-1].end)
}

// entries returns chunk k's entries.
func (pl *PeerList) entries(k int) []entry {
	r := &pl.dir[k]
	return r.c.e[:r.n]
}

// start returns the global index of chunk k's first entry.
func (pl *PeerList) start(k int) int {
	r := &pl.dir[k]
	return int(r.end - r.n)
}

// chunkOf returns the chunk holding global index i, or the last chunk
// when i is past the end.
func (pl *PeerList) chunkOf(i int) int {
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

// locate returns where the first entry with ID >= id is, or would be
// inserted: chunk k and position j in it. Past every entry it is the end
// of the last chunk. The list must not be empty.
//
//pwlint:noalloc
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
	s := pl.entries(lo)
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
//
//pwlint:noalloc
func (pl *PeerList) find(id nodeid.ID) (k, j int, held bool) {
	if len(pl.dir) == 0 {
		return 0, 0, false
	}
	k, j = pl.locate(id)
	r := &pl.dir[k]
	return k, j, j < int(r.n) && r.c.e[j].id == id
}

// search returns the global index of the first entry with ID >= id.
func (pl *PeerList) search(id nodeid.ID) int {
	if len(pl.dir) == 0 {
		return 0
	}
	k, j := pl.locate(id)
	return pl.start(k) + j
}

// take appends chunk k's entries to the pool's scratch and releases the
// chunk; the directory entry is dead until recut replaces it.
//
//pwlint:noalloc
func (pl *PeerList) take(k int) {
	p := pl.pool
	r := &pl.dir[k]
	p.e = append(p.e, r.c.e[:r.n]...)
	p.release(r.c)
	r.c = nil
}

// recut replaces the taken chunks dir[k:m] with what the content rule
// cuts the pool's scratch — their entries, as edited — into.
// While the scratch ends in an open chunk and chunks follow, the next one
// is taken too: the chunks after a cut that falls on an old chunk's end
// are the ones the rule cuts anyway, so they stay as they are.
//
//pwlint:noalloc
func (pl *PeerList) recut(k, m int) {
	p := pl.pool
	out := p.out[:0]
	from := 0
	for {
		for from < len(p.e) {
			n, closed := cutLen(p.e[from:])
			if !closed && from+n == len(p.e) && m < len(pl.dir) {
				break
			}
			to := from + n
			piece := p.e[from:to]
			out = append(out, chunkRef{c: p.intern(piece, hashEntries(piece)), n: int32(n), last: p.e[to-1].id})
			from = to
		}
		if from == len(p.e) {
			break
		}
		pl.take(m)
		m++
	}
	p.e, p.out = p.e[:0], out[:0]
	pl.splice(k, m, out)
}

// splice puts the chunks out in place of dir[k:m] and renews the running
// counts from k on.
//
//pwlint:noalloc
func (pl *PeerList) splice(k, m int, out []chunkRef) {
	n := len(pl.dir)
	nn := n + len(out) - (m - k)
	if nn > n {
		pl.dir = append(pl.dir, make([]chunkRef, nn-n)...)
	}
	copy(pl.dir[k+len(out):], pl.dir[m:n])
	copy(pl.dir[k:], out)
	if nn < n {
		clear(pl.dir[nn:n])
		pl.dir = pl.dir[:nn]
	}
	end := int32(0)
	if k > 0 {
		end = pl.dir[k-1].end
	}
	for i := k; i < len(pl.dir); i++ {
		end += pl.dir[i].n
		pl.dir[i].end = end
	}
}

// settle makes the pool's scratch chunk k's content, after an edit that
// kept chunk k's cut points: the scratch is one piece, whose hash is h,
// and the running counts from k on move by delta.
//
//pwlint:noalloc
func (pl *PeerList) settle(k int, h uint64, delta int32) {
	p := pl.pool
	r := &pl.dir[k]
	r.c, r.n, r.last = p.intern(p.e, h), int32(len(p.e)), p.e[len(p.e)-1].id
	p.e = p.e[:0]
	for i := k; i < len(pl.dir); i++ {
		pl.dir[i].end += delta
	}
}

// insert puts q, first seen at now, at position j of chunk k, where
// locate placed its ID. The cut points stay when q lands inside a chunk
// with room and is no natural end, or extends an open last chunk;
// otherwise recut finds the new ones.
//
//pwlint:noalloc
func (pl *PeerList) insert(k, j int, q wire.Pointer, now des.Time) {
	p, e := pl.writer(), entryOf(q)
	pl.storeInfo(q, false)
	if len(pl.dir) == 0 {
		p.e = append(p.e, e)
		pl.recut(0, 0)
		pl.stamps.insert(&p.leaves, 0, stamp{firstSeen: now, lastSeen: now})
		return
	}
	r := &pl.dir[k]
	n := int(r.n)
	keeps := n < chunkCap && (j < n && !natural(e.id) || j == n && !natural(r.last))
	h := rehash(r.c.hash, nil, &e)
	at := pl.start(k) + j
	pl.take(k)
	p.e = append(p.e, entry{})
	copy(p.e[j+1:], p.e[j:])
	p.e[j] = e
	if keeps {
		pl.settle(k, h, 1)
	} else {
		pl.recut(k, k+1)
	}
	pl.stamps.insert(&p.leaves, at, stamp{firstSeen: now, lastSeen: now})
}

// removeAt deletes position j of chunk k. The cut points stay when the
// chunk keeps its natural end and other entries, or is the last chunk.
//
//pwlint:noalloc
func (pl *PeerList) removeAt(k, j int) {
	p := pl.pool
	r := &pl.dir[k]
	n := int(r.n)
	keeps := n > 1 && (k == len(pl.dir)-1 || j < n-1 && natural(r.last))
	h := rehash(r.c.hash, &r.c.e[j], nil)
	at := pl.start(k) + j
	pl.take(k)
	copy(p.e[j:], p.e[j+1:])
	p.e = p.e[:len(p.e)-1]
	if keeps {
		pl.settle(k, h, -1)
	} else {
		pl.recut(k, k+1)
	}
	pl.stamps.remove(&p.leaves, at)
}

// replace overwrites the shared part of the entry at (k, j) with e, which
// has the same ID: the cut points stay, so only chunk k changes.
//
//pwlint:noalloc
func (pl *PeerList) replace(k, j int, e entry) {
	r := &pl.dir[k]
	h := rehash(r.c.hash, &r.c.e[j], &e)
	pl.take(k)
	pl.pool.e[j] = e
	pl.settle(k, h, 0)
}

// Lookup returns the pointer for id, if present.
//
//pwlint:noalloc
func (pl *PeerList) Lookup(id nodeid.ID) (wire.Pointer, bool) {
	if k, j, held := pl.find(id); held {
		return pl.pointer(&pl.dir[k].c.e[j]), true
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
		pl.update(k, j, p, now)
		return false
	}
	pl.insert(k, j, p, now)
	return true
}

// update overwrites the held entry at (k, j) with p, whose ID it is, as
// seen at now. An update that leaves the shared part as it is (a
// refresh, a re-delivery, an info change) touches only the list's own
// stamps and info table.
//
//pwlint:noalloc
func (pl *PeerList) update(k, j int, p wire.Pointer, now des.Time) {
	pl.stamps.at(pl.start(k) + j).lastSeen = now
	old, e := pl.dir[k].c.e[j], entryOf(p)
	pl.storeInfo(p, old.hasInfo)
	if e != old {
		pl.replace(k, j, e)
	}
}

// MergeSorted merges the batch ps into the list, exactly as one Upsert
// per pointer in batch order would. It is the application path for
// peer-list downloads (join step 3, level raising, reconcile, Restore),
// whose batches arrive sorted by ID. onNew, if not nil, is called once
// per newly inserted pointer; onUpdate, if not nil, is called once per
// existing entry whose stored pointer actually changed (same ID,
// different level, address or info — bit-identical upserts are
// suppressed). Callbacks fire in application order, batch order, each
// seeing the list with the batch applied up to its pointer. It returns
// the number of new entries.
//
// A strictly ascending batch into an empty list (join, warm start) is
// cut into chunks in one pass; any other batch goes entry by entry, one
// search each, then an update or an insert.
//
//pwlint:noalloc
func (pl *PeerList) MergeSorted(ps []wire.Pointer, now des.Time, onNew func(wire.Pointer), onUpdate func(old, new wire.Pointer)) int {
	if len(pl.dir) == 0 && len(ps) > 0 && ascending(ps) {
		pl.build(ps, now)
		if onNew != nil {
			for _, p := range ps {
				onNew(p)
			}
		}
		return len(ps)
	}
	added := 0
	for _, p := range ps {
		k, j, held := pl.find(p.ID)
		if !held {
			pl.insert(k, j, p, now)
			added++
			if onNew != nil {
				onNew(p)
			}
			continue
		}
		old := pl.pointer(&pl.dir[k].c.e[j])
		pl.update(k, j, p, now)
		if onUpdate != nil && !old.Equal(p) {
			onUpdate(old, p)
		}
	}
	return added
}

// ascending reports whether ps is in strictly ascending ID order.
func ascending(ps []wire.Pointer) bool {
	for k := 1; k < len(ps); k++ {
		if !ps[k-1].ID.Less(ps[k].ID) {
			return false
		}
	}
	return true
}

// build fills the empty list with ps, in strictly ascending ID order.
//
//pwlint:noalloc
func (pl *PeerList) build(ps []wire.Pointer, now des.Time) {
	p := pl.writer()
	for _, q := range ps {
		p.e = append(p.e, entryOf(q))
		pl.storeInfo(q, false)
	}
	pl.recut(0, 0)
	pl.stamps.build(&p.leaves, len(ps), stamp{firstSeen: now, lastSeen: now})
}

// MinLevel returns the smallest level among held pointers, or -1 when the
// list is empty. A node is a top node of its part exactly when MinLevel
// is -1 or not smaller than its own level (§4.4).
//
//pwlint:noalloc
func (pl *PeerList) MinLevel() int {
	if e := pl.strongest(); e != nil {
		return int(e.level)
	}
	return -1
}

// Strongest returns the first pointer (in ID order) at the minimum level,
// if any. Only the report, escalation and level-raise paths ask (§4.3–
// §4.5), a few times per node-minute.
//
//pwlint:noalloc
func (pl *PeerList) Strongest() (wire.Pointer, bool) {
	if e := pl.strongest(); e != nil {
		return pl.pointer(e), true
	}
	return wire.Pointer{}, false
}

// strongest returns the first entry (in ID order) at the minimum level,
// or nil when the list is empty. Its scan stops at the first level-0
// entry, which no entry beats.
//
//pwlint:noalloc
func (pl *PeerList) strongest() *entry {
	var best *entry
	for k := range pl.dir {
		s := pl.entries(k)
		for j := range s {
			if best == nil || s[j].level < best.level {
				if best = &s[j]; best.level == 0 {
					return best
				}
			}
		}
	}
	return best
}

// Remove deletes id, returning the removed pointer and whether it existed.
func (pl *PeerList) Remove(id nodeid.ID) (removedPeer, bool) {
	k, j, held := pl.find(id)
	if !held {
		return removedPeer{}, false
	}
	r := pl.removed(&pl.dir[k].c.e[j], pl.stamps.at(pl.start(k)+j))
	pl.removeAt(k, j)
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
		e := &pl.dir[k].c.e[j]
		j++
		if e.id == id {
			continue
		}
		if p := pl.pointer(e); keep == nil || keep(p) {
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

// walk calls fn on the entries at global indices [lo, hi), in order,
// with the list's stamps for each.
func (pl *PeerList) walk(lo, hi int, fn func(e *entry, s *stamp)) {
	if lo >= hi {
		return
	}
	k := pl.chunkOf(lo)
	j := lo - pl.start(k)
	q := &pl.stamps
	sk := q.leafOf(lo)
	sj := lo - q.start(sk)
	for i := lo; i < hi; i++ {
		if j == int(pl.dir[k].n) {
			k, j = k+1, 0
		}
		if sj == int(q.dir[sk].n) {
			sk, sj = sk+1, 0
		}
		fn(&pl.dir[k].c.e[j], &q.dir[sk].leaf.s[sj])
		j++
		sj++
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
	pl.walk(lo, hi, func(e *entry, _ *stamp) { out = append(out, pl.pointer(e)) })
	return out
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
	drop := func(e *entry, s *stamp) { dropped = append(dropped, pl.removed(e, s)) }
	pl.walk(0, lo, drop)
	pl.walk(hi, n, drop)
	pl.keep(lo, hi)
	return dropped
}

// keep cuts the list down to the entries at global indices [lo, hi): it
// takes the kept run out, releases every chunk and cuts the run afresh,
// as its first chunk now starts the list.
func (pl *PeerList) keep(lo, hi int) {
	p := pl.writer()
	pl.walk(lo, hi, func(e *entry, _ *stamp) { p.e = append(p.e, *e) })
	for k := range pl.dir {
		p.release(pl.dir[k].c)
	}
	clear(pl.dir)
	pl.dir = pl.dir[:0]
	pl.recut(0, 0)
	pl.stamps.keep(&p.leaves, lo, hi)
}

// ForEach visits every entry in ID order; the visitor must not mutate the
// list.
func (pl *PeerList) ForEach(fn func(p wire.Pointer, firstSeen, lastSeen des.Time)) {
	pl.walk(0, pl.Len(), func(e *entry, s *stamp) { fn(pl.pointer(e), s.firstSeen, s.lastSeen) })
}

// At returns the i-th pointer in ID order; it panics when out of range.
func (pl *PeerList) At(i int) wire.Pointer {
	k := pl.chunkOf(i)
	return pl.pointer(&pl.entries(k)[i-pl.start(k)])
}

// Pointers returns a copy of all pointers in ID order.
func (pl *PeerList) Pointers() []wire.Pointer {
	out := make([]wire.Pointer, 0, pl.Len())
	pl.walk(0, pl.Len(), func(e *entry, _ *stamp) { out = append(out, pl.pointer(e)) })
	return out
}

// splitStep splits [lo, hi) — the entries sharing the first s bits of
// selfID — at bit s with one search: [candLo, candHi) differs from
// selfID at bit s (step s's candidates) and [nextLo, nextHi) shares bit
// s too (step s+1's range).
func (pl *PeerList) splitStep(selfID nodeid.ID, s, lo, hi int) (candLo, candHi, nextLo, nextHi int) {
	mid := pl.search(selfID.Prefix(s).WithBit(s, 1))
	if selfID.Bit(s) == 1 {
		return lo, mid, mid, hi
	}
	return mid, hi, lo, mid
}

// strongestIn picks the strongest audience member of subject among the
// entries at global indices [lo, hi), skipping the pointers in skip. The scan
// starts at a random rotation of the range so equal-level ties resolve
// to a random member — this spreads forwarding load across equally
// strong nodes and, crucially, means every stale pointer is eventually
// chosen as a target and cleaned up by the §4.2 no-response rule; a
// deterministic tie-break would let unluckily placed stale entries
// survive forever. A level-0 candidate is globally strongest, so the scan
// stops at the first one it meets — with level-0-dominated ranges (the
// common case) the expected scan is short.
func (pl *PeerList) strongestIn(lo, hi int, subject nodeid.ID, skip []wire.Pointer, rng *xrand.Source) (wire.Pointer, bool) {
	span := hi - lo
	if span <= 0 {
		return wire.Pointer{}, false
	}
	offset := 0
	if rng != nil && span > 1 {
		offset = rng.Intn(span)
	}
	var best *entry
	bestLevel := 256
	k := pl.chunkOf(lo + offset)
	j := lo + offset - pl.start(k)
	for c := 0; c < span; c++ {
		switch {
		case c == span-offset: // past hi: wrap to lo
			k = pl.chunkOf(lo)
			j = lo - pl.start(k)
		case j == int(pl.dir[k].n):
			k, j = k+1, 0
		}
		cand := &pl.dir[k].c.e[j]
		j++
		if int(cand.level) >= bestLevel {
			continue
		}
		if len(skip) > 0 && slices.ContainsFunc(skip, func(p wire.Pointer) bool { return p.ID == cand.id }) {
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
