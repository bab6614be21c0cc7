package core

import (
	"fmt"
	"hash/maphash"
	"math/bits"

	"peerwindow/internal/nodeid"
)

// dedupRec is the event-dedup state of one subject. seq is the newest
// announcement sequence applied (0: none yet). dead says the subject's
// leave was already applied or reported, so that tripping over its
// residue (a failed multicast target, a probe timeout) does not spawn a
// fresh leave announcement — without it every encounter would invent a
// higher sequence number and re-trigger a full multicast.
type dedupRec struct {
	seq  uint64
	dead bool
}

// dedupTable holds a node's dedupRec per subject: an open-addressing
// table of 32-byte slots with linear probing, its length a power of two
// (nil until the first put), at most 7/8 full. A slot is empty when its
// record is zero; no stored record is zero, since every put carries a
// sequence or a death. Nothing is ever deleted in place: pruneDedup
// rebuilds the table, so there are no tombstones and a probe ends at the
// first empty slot.
type dedupTable struct {
	slots []dedupSlot
	// n counts the occupied slots, sequenced those whose record carries
	// a sequence (pruneDedup's trigger).
	n, sequenced int
}

// dedupSlot is one slot of a dedupTable.
type dedupSlot struct {
	id nodeid.ID
	r  dedupRec
}

// dedupMinSlots is the length of a table's first array, 1 KB: a node
// that applies one event soon applies dozens (a join wave brings every
// member one per arrival), and starting at 8 slots would add two growth
// steps per node.
const dedupMinSlots = 32

// dedupSeed keys the table's hash for the process, so a peer cannot
// choose IDs that pile onto one probe run.
var dedupSeed = maphash.Bytes(maphash.MakeSeed(), nil)

// home returns the slot id's probe starts at: both halves of the ID
// multiplied under the seed, the 128-bit product folded to 64 bits.
func (t *dedupTable) home(id nodeid.ID) int {
	hi, lo := bits.Mul64(id.Hi^dedupSeed, id.Lo^bits.RotateLeft64(dedupSeed, 32))
	return int((hi ^ lo) & uint64(len(t.slots)-1))
}

// index returns the slot that holds id (found) or, when the table does
// not hold it, the empty slot that ends its probe. The table must have
// slots.
func (t *dedupTable) index(id nodeid.ID) (i int, found bool) {
	mask := len(t.slots) - 1
	for i = t.home(id); ; i = (i + 1) & mask {
		switch s := &t.slots[i]; {
		case s.r == dedupRec{}:
			return i, false
		case s.id == id:
			return i, true
		}
	}
}

// get returns id's record, zero when the table holds none.
//
//pwlint:noalloc
func (t *dedupTable) get(id nodeid.ID) dedupRec {
	if t.n == 0 {
		return dedupRec{}
	}
	i, _ := t.index(id)
	return t.slots[i].r
}

// put stores r as id's record, counting the records that gain or lose a
// sequence. r must not be zero.
func (t *dedupTable) put(id nodeid.ID, r dedupRec) {
	if r == (dedupRec{}) {
		panic("core: zero dedup record")
	}
	if len(t.slots) == 0 {
		t.rebuild(dedupMinSlots, nil)
	}
	i, found := t.index(id)
	if !found {
		if t.n+1 > len(t.slots)-len(t.slots)/8 {
			t.rebuild(2*len(t.slots), nil)
			i, _ = t.index(id)
		}
		t.slots[i].id = id
		t.n++
	}
	s := &t.slots[i]
	switch {
	case s.r.seq == 0 && r.seq != 0:
		t.sequenced++
	case s.r.seq != 0 && r.seq == 0:
		t.sequenced--
	}
	s.r = r
}

// rebuild moves the records into a fresh array of size slots, dropping
// those keep rejects (nil keeps all); the old array goes to the GC. A
// prune rebuilds at the current size.
func (t *dedupTable) rebuild(size int, keep func(nodeid.ID, dedupRec) bool) {
	old := t.slots
	t.slots = make([]dedupSlot, size)
	for _, s := range old {
		switch {
		case s.r == dedupRec{}:
		case keep == nil || keep(s.id, s.r):
			i, _ := t.index(s.id)
			t.slots[i] = s
		default:
			t.n--
			if s.r.seq != 0 {
				t.sequenced--
			}
		}
	}
}

// check verifies the table's rules: its length is zero or a power of
// two, at most 7/8 of it full; n counts the occupied slots and sequenced
// the records with a sequence; and every record is reached by its own
// probe — no empty slot and no other copy of its ID lies between its
// home slot and it.
func (t *dedupTable) check() error {
	size := len(t.slots)
	if size&(size-1) != 0 {
		return fmt.Errorf("dedup table of %d slots, not a power of two", size)
	}
	if t.n > size-size/8 {
		return fmt.Errorf("dedup table holds %d records in %d slots, over 7/8 full", t.n, size)
	}
	n, sequenced := 0, 0
	for i, s := range t.slots {
		if s.r == (dedupRec{}) {
			continue
		}
		n++
		if s.r.seq != 0 {
			sequenced++
		}
		for j := t.home(s.id); j != i; j = (j + 1) & (size - 1) {
			switch o := t.slots[j]; {
			case o.r == dedupRec{}:
				return fmt.Errorf("dedup record of %v in slot %d lies past the empty slot %d", s.id, i, j)
			case o.id == s.id:
				return fmt.Errorf("dedup table holds %v in slots %d and %d", s.id, j, i)
			}
		}
	}
	if n != t.n || sequenced != t.sequenced {
		return fmt.Errorf("dedup table counts %d records, %d sequenced; its slots hold %d, %d", t.n, t.sequenced, n, sequenced)
	}
	return nil
}
