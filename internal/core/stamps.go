package core

import (
	"peerwindow/internal/des"
	"peerwindow/internal/freelist"
)

// stamp is the part of a peer-list entry that is the holder's own: when
// it first learned of the node (lifetime measurement) and when an event
// or refresh last mentioned it (§4.6 expiry).
type stamp struct {
	firstSeen, lastSeen des.Time
}

// Stamp-leaf layout. A peer list holds about N/2^l pointers, a thousand
// and more at Fig 9's scales, and every join or leave inserts or removes
// one of them, so a mutation must not move every stamp of the list.
const (
	// leafCap is the number of stamps in one leaf: 63 × 16 B plus the
	// leaf's link fill 1 KB, one allocation size class, and it is the
	// most one insert or remove moves.
	leafCap = 63
	// buildFill is how many stamps each leaf gets when a sorted batch
	// fills an empty list: 15/16 of leafCap, so the inserts that follow
	// a download find room instead of splitting every leaf at once.
	buildFill = leafCap - leafCap/16
	// spreadWindow is how many adjacent leaves an insert into a full
	// leaf may spread stamps over before it adds a leaf.
	spreadWindow = 4
)

// leaf is the storage of one run of a list's stamps. Leaves come from
// the list's pool (ChunkPool.leaves), shared by every list of a
// simulator cluster, and go back to it all zero.
type leaf struct {
	// next links the leaf into the pool's free list while no list holds
	// it. It comes first so the collector scans one word of the leaf.
	next *leaf
	s    [leafCap]stamp
}

// Link implements freelist.Linked.
func (l *leaf) Link() **leaf { return &l.next }

// leafPool is the free list the leaves come from.
type leafPool = freelist.List[leaf, *leaf]

// leafRef is one stampSeq directory entry: a leaf, how many stamps it
// holds and the running count through it.
type leafRef struct {
	leaf *leaf
	n    int32 // stamps held, in leaf.s[:n]; the slots past n are zero
	end  int32 // stamps in this leaf and every earlier one
}

// stampSeq is a peer list's stamps, one per entry in ID order, kept in
// leaves of at most leafCap, so an insert or a remove moves one leaf's
// worth. Stamps are addressed by global index: the i-th stamp is the
// i-th entry's. The methods that add or drop leaves take the pool they
// come from and go back to.
type stampSeq struct {
	// dir lists the leaves in order. No leaf is empty.
	dir []leafRef
}

// len returns the number of stamps held.
func (q *stampSeq) len() int {
	if len(q.dir) == 0 {
		return 0
	}
	return int(q.dir[len(q.dir)-1].end)
}

// start returns the global index of leaf k's first stamp.
func (q *stampSeq) start(k int) int {
	r := &q.dir[k]
	return int(r.end - r.n)
}

// leafOf returns the leaf holding global index i, or the last leaf when i
// is past the end. Leaves hold close to the mean count, so it starts
// from the leaf that count points at and steps from there.
//
//pwlint:noalloc
func (q *stampSeq) leafOf(i int) int {
	n := len(q.dir)
	if n <= 1 {
		return 0
	}
	k := min(i*n/int(q.dir[n-1].end), n-1)
	for k > 0 && int(q.dir[k-1].end) > i {
		k--
	}
	for k < n-1 && int(q.dir[k].end) <= i {
		k++
	}
	return k
}

// at returns the stamp at global index i; it panics when i is out of
// range.
//
//pwlint:noalloc
func (q *stampSeq) at(i int) *stamp {
	k := q.leafOf(i)
	return &q.dir[k].leaf.s[i-q.start(k)]
}

// addLeaves inserts m empty leaves from leaves into the directory at
// position at.
//
//pwlint:noalloc
func (q *stampSeq) addLeaves(leaves *leafPool, at, m int) {
	end := int32(0)
	if at > 0 {
		end = q.dir[at-1].end
	}
	q.dir = append(q.dir, make([]leafRef, m)...)
	copy(q.dir[at+m:], q.dir[at:])
	for i := at; i < at+m; i++ {
		q.dir[i] = leafRef{leaf: leaves.Get(), end: end}
	}
}

// dropLeaf removes the empty leaf k from the directory and returns it to
// leaves.
func (q *stampSeq) dropLeaf(leaves *leafPool, k int) {
	leaves.Put(q.dir[k].leaf)
	copy(q.dir[k:], q.dir[k+1:])
	q.dir[len(q.dir)-1] = leafRef{}
	q.dir = q.dir[:len(q.dir)-1]
}

// insert puts s at global index i, 0 <= i <= len.
//
//pwlint:noalloc
func (q *stampSeq) insert(leaves *leafPool, i int, s stamp) {
	k, j := q.room(leaves, i)
	r := &q.dir[k]
	copy(r.leaf.s[j+1:r.n+1], r.leaf.s[j:r.n])
	r.leaf.s[j] = s
	r.n++
	for x := k; x < len(q.dir); x++ {
		q.dir[x].end++
	}
}

// remove deletes the stamp at global index i, returning its leaf to
// leaves if it is left empty. A thinned leaf stays as it is, as a slice
// keeps its capacity: the list is as large as it has been, and inserts
// refill it.
func (q *stampSeq) remove(leaves *leafPool, i int) {
	k := q.leafOf(i)
	j := i - q.start(k)
	r := &q.dir[k]
	copy(r.leaf.s[j:r.n-1], r.leaf.s[j+1:r.n])
	r.n--
	r.leaf.s[r.n] = stamp{}
	for x := k; x < len(q.dir); x++ {
		q.dir[x].end--
	}
	if r.n == 0 {
		q.dropLeaf(leaves, k)
	}
}

// room returns the leaf and position global index i is inserted at,
// after making sure that leaf has a free slot. A full leaf spreads its
// stamps over up to spreadWindow neighbours when they have a free slot
// per leaf between them, and otherwise over those leaves plus a new one;
// an insert past the end of a full last leaf starts a new leaf, so
// ascending inserts fill leaves completely. New leaves come from leaves.
//
//pwlint:noalloc
func (q *stampSeq) room(leaves *leafPool, i int) (int, int) {
	if len(q.dir) == 0 {
		q.addLeaves(leaves, 0, 1)
		return 0, 0
	}
	k := q.leafOf(i)
	j := i - q.start(k)
	switch {
	case q.dir[k].n < leafCap:
		return k, j
	case k == len(q.dir)-1 && j == leafCap:
		q.addLeaves(leaves, k+1, 1)
		return k + 1, 0
	}
	a, b, free := k, k, 0
	for b-a+1 < spreadWindow && free < b-a+1 {
		if b+1 < len(q.dir) && (a == 0 || q.dir[b+1].n <= q.dir[a-1].n) {
			b++
			free += leafCap - int(q.dir[b].n)
		} else if a > 0 {
			a--
			free += leafCap - int(q.dir[a].n)
		} else {
			break
		}
	}
	if free < b-a+1 {
		q.addLeaves(leaves, b+1, 1)
		b++
	}
	q.spread(a, b)
	k = q.leafOf(i)
	return k, i - q.start(k)
}

// spread deals the stamps of leaves a..b — at most spreadWindow leaves'
// worth — out evenly over those leaves, in order.
//
//pwlint:noalloc
func (q *stampSeq) spread(a, b int) {
	var buf [spreadWindow * leafCap]stamp
	base, t := q.start(a), 0
	for i := a; i <= b; i++ {
		r := &q.dir[i]
		t += copy(buf[t:], r.leaf.s[:r.n])
		clear(r.leaf.s[:r.n])
	}
	w, from := b-a+1, 0
	for i := a; i <= b; i++ {
		to := t * (i - a + 1) / w
		r := &q.dir[i]
		r.n = int32(copy(r.leaf.s[:], buf[from:to]))
		r.end = int32(base + to)
		from = to
	}
}

// build fills the empty sequence with n copies of s, spread evenly over
// as few leaves from leaves as keep each at or below buildFill.
//
//pwlint:noalloc
func (q *stampSeq) build(leaves *leafPool, n int, s stamp) {
	m := (n + buildFill - 1) / buildFill
	q.addLeaves(leaves, 0, m)
	from := 0
	for i := range q.dir {
		r, to := &q.dir[i], n*(i+1)/m
		for j := range to - from {
			r.leaf.s[j] = s
		}
		r.n, r.end = int32(to-from), int32(to)
		from = to
	}
}

// keep cuts the sequence down to the stamps at global indices [lo, hi):
// the leaves outside go back to leaves, cleared, and the two boundary
// leaves are trimmed.
func (q *stampSeq) keep(leaves *leafPool, lo, hi int) {
	first, last := 0, -1 // kept leaves
	if lo < hi {
		first, last = q.leafOf(lo), q.leafOf(hi-1)
		head, tail := lo-q.start(first), hi-q.start(last)
		r := &q.dir[last]
		clear(r.leaf.s[tail:r.n])
		r.n = int32(tail)
		r = &q.dir[first]
		copy(r.leaf.s[:], r.leaf.s[head:r.n])
		clear(r.leaf.s[int(r.n)-head : r.n])
		r.n -= int32(head)
	}
	for k := range q.dir {
		if r := &q.dir[k]; k < first || k > last {
			clear(r.leaf.s[:r.n])
			leaves.Put(r.leaf)
		}
	}
	kept := copy(q.dir, q.dir[first:last+1])
	clear(q.dir[kept:])
	q.dir = q.dir[:kept]
	end := int32(0)
	for k := range q.dir {
		r := &q.dir[k]
		end += r.n
		r.end = end
	}
}
