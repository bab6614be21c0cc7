package core

import (
	"math/bits"

	"peerwindow/internal/freelist"
	"peerwindow/internal/nodeid"
	"peerwindow/internal/wire"
)

// entry is the part of a peer-list entry that every node holding the
// pointer agrees on: the pointer's fixed fields, 32 bytes. A pointer's
// Info — empty for most nodes — lives out of line in PeerList.info, so
// the entry carries no slice header; §3 keeps pointers small because
// "large pointers will finally deflate the peer lists".
type entry struct {
	id      nodeid.ID
	addr    wire.Addr
	level   uint8
	hasInfo bool // the pointer's non-empty Info is in PeerList.info
}

// Chunk layout. §2 gives every node with the same eigenstring the same
// peer list, so most runs of entries are held by hundreds of nodes at
// once. A list is cut into content-defined chunks: a chunk ends after
// the first entry whose ID is a natural end (natural), or when it holds
// chunkCap entries, whichever comes first, and the next chunk starts
// right after. The cut points of a run therefore depend on the run's
// IDs alone, from the last natural end before it on, so equal runs make
// equal chunks in every list, whatever each list's history, and a pool
// stores each once.
const (
	// endBits is how many hashed ID bits must be zero for a natural end:
	// 4 makes a chunk 16 entries long on average.
	endBits = 4
	// chunkCap is the most entries a chunk holds: 63 × 32 B plus the
	// header fill 2 KB, one allocation size class. A run of 63 entries
	// without a natural end comes once in about 60 chunks.
	chunkCap = 63
)

// natural reports whether a chunk ends after the entry with this ID. The
// test reads hashed ID bits, so a list of structured IDs (tests, small
// universes) is cut like a list of random ones.
func natural(id nodeid.ID) bool {
	return (id.Hi^bits.RotateLeft64(id.Lo, 32))*0x9e3779b97f4a7c15>>(64-endBits) == 0
}

// cutLen returns the length of the chunk the content rule cuts from the
// front of es, and whether that chunk is closed — it ends at a natural
// end or at chunkCap — rather than merely running out of entries.
func cutLen(es []entry) (n int, closed bool) {
	for n < len(es) && n < chunkCap {
		n++
		if natural(es[n-1].id) {
			return n, true
		}
	}
	return n, n == chunkCap
}

// chunk is one content-defined run of shared entries.
type chunk struct {
	// next links the chunk into its hash chain while interned, or into
	// the free list while released. It comes first so the collector
	// scans one word of the chunk.
	next *chunk
	hash uint64 // hashEntries(e[:n]), the hash it is interned under
	n    int32
	refs int32 // lists holding the chunk; 0 on the free list
	e    [chunkCap]entry
}

// Link implements freelist.Linked.
func (c *chunk) Link() **chunk { return &c.next }

// entries returns the chunk's content.
func (c *chunk) entries() []entry { return c.e[:c.n] }

// holds reports whether the chunk's content is es.
//
//pwlint:noalloc
func (c *chunk) holds(es []entry) bool {
	if int(c.n) != len(es) {
		return false
	}
	for i := range es {
		if c.e[i] != es[i] {
			return false
		}
	}
	return true
}

// hashEntries is the content hash a pool interns a chunk under: the sum
// of its entries' hashes, so replacing one entry updates it in O(1) (see
// rehash). Entries are in ID order, so the sum loses nothing a position
// would add.
func hashEntries(es []entry) uint64 {
	var h uint64
	for i := range es {
		h += entryHash(&es[i])
	}
	return h
}

// entryHash mixes every field of e into 64 bits.
func entryHash(e *entry) uint64 {
	const m1, m2 = 0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9
	flags := uint64(e.level) << 1
	if e.hasInfo {
		flags |= 1
	}
	h := (e.id.Hi ^ bits.RotateLeft64(e.id.Lo, 32)) * m1
	h = (h ^ h>>29 ^ uint64(e.addr)<<9 ^ flags) * m2
	return h ^ h>>32
}

// ChunkPool stores peer-list chunks for the lists that share it. It
// interns chunks by content hash and counts the lists holding each, so a
// run of entries that many nodes agree on is stored once; a change to a
// held chunk never writes to it, but looks up the new content, shares a
// match or publishes a chunk taken from the free list, and releases the
// old one, which returns to the free list when no list holds it, so a
// warm pool serves edits without allocating. Each list keeps its stamps
// (the per-node part) in leaves of its own, which the pool also
// recycles. A pool that serves one list (a live host's, a standalone
// one) finds no match for an edited chunk and takes back the chunk the
// edit has just released.
//
// The zero ChunkPool is empty and ready to use. A pool is not safe for
// concurrent use: every list sharing one must be driven from one
// goroutine, as one simulator cluster (or one shard of a sharded
// cluster) is.
type ChunkPool struct {
	// index is a hash table of the interned chunks: bucket b chains,
	// through chunk.next, the chunks whose hash's low bits are b, and
	// interned counts them. It starts empty and doubles when the chunks
	// would outnumber the buckets.
	index    []*chunk
	interned int
	// chunks holds the released chunks, leaves the stamp leaves no list
	// holds (see stampSeq).
	chunks freelist.List[chunk, *chunk]
	leaves freelist.List[leaf, *leaf]
	// The scratch an edit cuts from (see PeerList.recut): the entries
	// from the edited chunk's start on, and the chunks cut so far.
	e   []entry
	out []chunkRef

	// The storage of the pool's nodes' deadline queues, one segment free
	// list per entry type (deadline.go: ackSegs serves the ack and
	// probe-wait queues, which both hold ack ids), and of their pending
	// sends and pending rings (reliable.go): a message burst grows it once
	// for every node that shares the pool. rings holds the free slot
	// arrays by size class (see ringClass).
	ackSegs freelist.List[segment[uint64], *segment[uint64]]
	hopSegs freelist.List[segment[forwardHop], *segment[forwardHop]]
	sends   freelist.List[pendingSend, *pendingSend]
	rings   [][][]*pendingSend
	// oneNode marks the pool NewNode makes for a node whose Env shares
	// none. That node's ring only ever grows, so no slot array it drops
	// would be taken again, and the pool keeps none.
	oneNode bool
}

// rehash returns hash h of a chunk's content with entry out, if any,
// taken out and entry in, if any, put in, without reading the rest of
// the content.
func rehash(h uint64, out, in *entry) uint64 {
	if out != nil {
		h -= entryHash(out)
	}
	if in != nil {
		h += entryHash(in)
	}
	return h
}

// intern returns a chunk holding es, whose hash (see hashEntries) is h,
// which the caller now holds: the interned one when the pool has it,
// else one from the free list.
//
//pwlint:noalloc
func (p *ChunkPool) intern(es []entry, h uint64) *chunk {
	if p.interned > 0 {
		for c := p.index[h&uint64(len(p.index)-1)]; c != nil; c = c.next {
			if c.hash == h && c.holds(es) {
				c.refs++
				return c
			}
		}
	}
	c := p.chunks.Get()
	copy(c.e[:], es)
	c.n, c.refs, c.hash = int32(len(es)), 1, h
	p.link(c)
	return c
}

// link chains c into its index bucket, doubling the index first when the
// interned chunks would outnumber the buckets.
//
//pwlint:noalloc
func (p *ChunkPool) link(c *chunk) {
	if p.interned++; p.interned > len(p.index) {
		p.grow() //pwlint:allow noalloc index miss: the pool interns more chunks than ever before
	}
	b := &p.index[c.hash&uint64(len(p.index)-1)]
	c.next, *b = *b, c
}

// grow doubles the index, from one bucket when it is empty, and rechains
// every interned chunk.
func (p *ChunkPool) grow() {
	old := p.index
	p.index = make([]*chunk, max(2*len(old), 1))
	mask := uint64(len(p.index) - 1)
	for _, c := range old {
		for c != nil {
			next := c.next
			b := &p.index[c.hash&mask]
			c.next, *b = *b, c
			c = next
		}
	}
}

// release drops one hold on c, returning it to the free list when no
// list holds it any more.
//
//pwlint:noalloc
func (p *ChunkPool) release(c *chunk) {
	if c.refs--; c.refs > 0 {
		return
	}
	p.unlink(c)
	p.chunks.Put(c)
}

// unlink removes c from its hash chain.
//
//pwlint:noalloc
func (p *ChunkPool) unlink(c *chunk) {
	p.interned--
	for q := &p.index[c.hash&uint64(len(p.index)-1)]; *q != nil; q = &(*q).next {
		if *q == c {
			*q = c.next
			return
		}
	}
}
