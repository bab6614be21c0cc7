package sim

import (
	"peerwindow/internal/des"
	"peerwindow/internal/nodeid"
	"peerwindow/internal/xrand"
)

// This file holds the struct-of-arrays node storage of the sharded
// scaled simulator (shardedscaled.go). A map from ID to a per-node heap
// object costs two pointers, a map bucket and a 56-byte object per node,
// all of it scanned by the GC every cycle; at one million nodes that
// layout is the bottleneck (a 100k profile showed ~30% of cycles in GC
// write barriers and object scanning alone). Here a node is a slot index into parallel arrays (id, threshold,
// level, last-shift time) owned by one of 256 fixed identifier-space
// slices; departures push the slot onto a free list and arrivals pop it
// back, so the arrays never shrink, never move, and hold zero pointers —
// the GC cost of a million nodes is a handful of slab headers.

// sliceCount is the fixed number of identifier-space slices: nodes are
// partitioned by the top 8 bits of their ID. Slices — not shards — are
// the unit every per-partition decision is keyed by (RNG streams,
// arrival processes, event tie-break keys), so regrouping slices into a
// different shard count K (any power of two dividing 256) cannot change
// any decision: shards=1 and shards=256 replay bit-identically.
const sliceCount = 256

// levelFree marks a free slot in popSlice.level.
const levelFree = 0xFF

// deathEntry is one scheduled departure: the slot dies at `at`. A slot
// is freed only by its death entry, so entry and occupant can never go
// stale relative to each other.
type deathEntry struct {
	at   des.Time
	slot int32
}

// deathHeap is a binary min-heap of departures ordered by time. Keeping
// one heap plus a single armed engine timer per slice — instead of one
// engine event per node — is what removes a million live closures from
// the engine slab.
type deathHeap []deathEntry

func (h *deathHeap) push(e deathEntry) {
	*h = append(*h, e)
	b := *h
	i := len(b) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !lessDeath(b[i], b[p]) {
			break
		}
		b[i], b[p] = b[p], b[i]
		i = p
	}
}

func (h *deathHeap) pop() deathEntry {
	b := *h
	top := b[0]
	n := len(b) - 1
	b[0] = b[n]
	b = b[:n]
	*h = b
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && lessDeath(b[c+1], b[c]) {
			c++
		}
		if !lessDeath(b[c], b[i]) {
			break
		}
		b[i], b[c] = b[c], b[i]
		i = c
	}
	return top
}

// lessDeath breaks time ties by slot so the pop order is a pure function
// of heap content, not insertion history.
func lessDeath(a, b deathEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.slot < b.slot
}

// popSlice is one fixed 1/256th of the identifier space: the SoA node
// arrays plus everything that slice decides on its own — its RNG stream,
// its share of the Poisson arrival process, its departure heap, its
// sweep, its event tie-break counter and its traffic accumulators. All
// mutation happens on the owning shard's worker; everything global the
// slice reads (prefix counts, churn rate) is frozen for the duration of
// a window.
type popSlice struct {
	shard  *scaledShard
	idx    int32
	target int // stationary population share of this slice
	rng    *xrand.Source
	seq    uint32 // per-slice event counter; feeds tie-break keys

	// Node state, indexed by slot. level holds levelFree for free slots.
	ids       []nodeid.ID
	threshold []float64
	level     []uint8
	lastShift []des.Time
	free      []int32
	live      int

	deaths  deathHeap
	deathH  des.Handle
	deathAt des.Time // instant the armed death timer fires at; 0 = unarmed

	// Pre-bound event closures, allocated once per slice instead of once
	// per scheduled event.
	arriveFn func()
	sweepFn  func()
	reapFn   func()

	// Per-level traffic (bits) attributed to events whose subject lives
	// in this slice; summed across slices in slice order at read time so
	// float accumulation order is shard-count-invariant.
	inBits, outBits []float64

	// Scratch for the event cost model (see ShardedScaled.record).
	audience []int32
	weights  []float64
}

// key returns the next shard-invariant event tie-break key for this
// slice: (slice index, per-slice counter). Two events from different
// slices never collide; two from the same slice are ordered by issue
// order — both orderings independent of how slices are grouped into
// shards.
func (sl *popSlice) key() uint64 {
	k := uint64(sl.idx)<<32 | uint64(sl.seq)
	sl.seq++
	return k
}

// alloc returns a free slot, growing the arrays when the free list is
// empty.
func (sl *popSlice) alloc() int32 {
	if n := len(sl.free); n > 0 {
		s := sl.free[n-1]
		sl.free = sl.free[:n-1]
		return s
	}
	sl.ids = append(sl.ids, nodeid.ID{})
	sl.threshold = append(sl.threshold, 0)
	sl.level = append(sl.level, levelFree)
	sl.lastShift = append(sl.lastShift, 0)
	return int32(len(sl.ids) - 1)
}

// put fills a slot with a new node.
func (sl *popSlice) put(slot int32, id nodeid.ID, threshold float64, level int) {
	sl.ids[slot] = id
	sl.threshold[slot] = threshold
	sl.level[slot] = uint8(level)
	sl.lastShift[slot] = 0
	sl.live++
}

// release frees a slot after departure.
func (sl *popSlice) release(slot int32) {
	sl.level[slot] = levelFree
	sl.free = append(sl.free, slot)
	sl.live--
}

// sliceOf returns the identifier-space slice an ID belongs to.
func sliceOf(id nodeid.ID) int { return int(id.Hi >> 56) }

// sliceID draws an identifier inside slice idx: the top 8 bits are the
// slice index, the rest uniform.
func sliceID(idx int32, rng *xrand.Source) nodeid.ID {
	return nodeid.ID{
		Hi: uint64(idx)<<56 | rng.Uint64()>>8,
		Lo: rng.Uint64(),
	}
}
