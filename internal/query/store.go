package query

import (
	"fmt"
	"sync/atomic"

	"peerwindow/internal/core"
	"peerwindow/internal/invariant"
	"peerwindow/internal/metrics"
	"peerwindow/internal/nodeid"
	"peerwindow/internal/wire"
)

// Store maintains the indexed snapshot of one node's window. It implements
// core.DeltaSink: the protocol path feeds it every window mutation, and the
// store publishes a fresh immutable View per mutation through an atomic
// pointer.
//
// Concurrency contract: exactly one goroutine — the node's executor, which
// serializes all protocol activity — calls the DeltaSink methods. Any
// number of goroutines may concurrently call View, Subscribe and the
// metrics accessors; none of them shares a mutex with the writer, so
// readers never block the protocol path and the protocol path never waits
// for readers.
type Store struct {
	cur  atomic.Pointer[View]
	subs atomic.Pointer[[]*Sub]
	reg  *metrics.Registry
	m    storeMetrics
	// lastDigest is the digest of the most recently published view,
	// re-verified at the next publish under -tags pwinvariants to prove
	// published views are never mutated. Writer-only.
	lastDigest uint64
}

// NewStore returns a store holding the empty epoch-0 view. If reg is nil a
// private metrics registry is created; either way the query.* series are
// registered immediately so scrapes see them at zero.
func NewStore(reg *metrics.Registry) *Store {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Store{reg: reg, m: newStoreMetrics(reg)}
	v := emptyView()
	s.cur.Store(v)
	if invariant.Enabled {
		s.lastDigest = v.Digest()
	}
	return s
}

// View returns the current snapshot. It is a single atomic load: wait-free,
// safe from any goroutine, and the returned view never changes.
func (s *Store) View() *View { return s.cur.Load() }

// MetricsSnapshot returns a point-in-time copy of the store's metrics.
func (s *Store) MetricsSnapshot() metrics.Snapshot { return s.reg.Snapshot() }

// Subscribe registers a delta subscription with the given buffer capacity
// (a non-positive buffer selects the default of 256) and optional filter.
// The filter runs on the protocol path, so it must be fast and must not
// block; a nil filter passes everything. The subscription is registered
// before its baseline view is captured, so the stream has no gap: every
// mutation after the baseline is either in the baseline itself
// (Epoch ≤ baseline epoch — skip those when replaying) or delivered.
func (s *Store) Subscribe(buffer int, filter func(Delta) bool) *Sub {
	if buffer <= 0 {
		buffer = 256
	}
	sub := &Sub{store: s, ch: make(chan Delta, buffer), filter: filter}
	for {
		old := s.subs.Load()
		var list []*Sub
		if old != nil {
			list = append(list, *old...)
		}
		list = append(list, sub)
		if s.subs.CompareAndSwap(old, &list) {
			break
		}
	}
	sub.baseline = s.cur.Load()
	s.m.subsActive.Add(1)
	return sub
}

// PeerAdded implements core.DeltaSink. Adding an ID that is already present
// degrades to an update so the store can never diverge from the peer list.
func (s *Store) PeerAdded(p wire.Pointer) {
	nv, e, _, replaced := insertView(s.cur.Load(), p)
	s.m.deltaAdd.Inc()
	kind := DeltaAdd
	if replaced {
		kind = DeltaUpdate
	}
	s.publish(nv, Delta{Kind: kind, Entry: e})
}

// PeerUpdated implements core.DeltaSink. Updating an ID that is absent
// degrades to an add. The delta's Prev is the entry the store held, which
// is prev whenever the store tracks the peer list.
func (s *Store) PeerUpdated(_, p wire.Pointer) {
	nv, e, old, replaced := insertView(s.cur.Load(), p)
	s.m.deltaUpdate.Inc()
	d := Delta{Kind: DeltaAdd, Entry: e}
	if replaced {
		d.Kind, d.Prev, d.HasPrev = DeltaUpdate, old, true
	}
	s.publish(nv, d)
}

// PeerRemoved implements core.DeltaSink. Removing an absent ID is a no-op.
func (s *Store) PeerRemoved(p wire.Pointer, reason core.RemoveReason) {
	v := s.cur.Load()
	nv, old, ok := removeView(v, p.ID)
	if !ok {
		return
	}
	s.m.deltaRemove.Inc()
	s.publish(nv, Delta{Kind: DeltaRemove, Entry: old, Reason: reason.String()})
}

// publish stamps the delta with the new epoch, swaps the current view and
// fans the delta out to subscribers. Writer-only.
func (s *Store) publish(nv *View, d Delta) {
	if invariant.Enabled {
		// A published view must digest identically for its whole
		// lifetime; catching a mutation here localizes it to the
		// preceding epoch.
		if prev := s.cur.Load(); prev.Digest() != s.lastDigest {
			panic("query: published view mutated after publication")
		}
		// A field index handed on to a clone must describe the clone
		// exactly; checking every published one catches a wrong hand-on
		// at the epoch that made it.
		for _, b := range nv.buckets {
			if x := b.index.Load(); x != nil && !x.equal(buildFieldIndex(b.ents)) {
				panic("query: field index differs from a fresh build of its bucket")
			}
		}
		s.lastDigest = nv.Digest()
	}
	d.Epoch = nv.epoch
	s.cur.Store(nv)
	s.m.epoch.Set(int64(nv.epoch))
	s.m.entries.Set(int64(nv.total))
	s.m.buckets.Set(int64(len(nv.buckets)))
	subs := s.subs.Load()
	if subs == nil {
		return
	}
	for _, sub := range *subs {
		if sub.closed.Load() {
			continue
		}
		if sub.filter != nil && !sub.filter(d) {
			continue
		}
		select {
		case sub.ch <- d:
			sub.delivered.Add(1)
			s.m.subDelivered.Inc()
		default:
			sub.dropped.Add(1)
			s.m.subDropped.Inc()
		}
	}
}

// CheckAgainst verifies the current view is exactly the given ID-sorted
// pointer list (the peer list's canonical order), comparing every field
// bit-for-bit. Used by the equivalence tests and the churn soaks.
func (s *Store) CheckAgainst(ps []wire.Pointer) error {
	v := s.View()
	if v.Len() != len(ps) {
		return fmt.Errorf("query: view has %d entries, list has %d", v.Len(), len(ps))
	}
	i := 0
	var err error
	v.Each(func(e Entry) bool {
		if !e.equalPtr(ps[i]) {
			err = fmt.Errorf("query: entry %d mismatch: view %v/%d, list %v/%d",
				i, e.ID, e.Level, ps[i].ID, ps[i].Level)
			return false
		}
		i++
		return true
	})
	return err
}

// insertView returns a new view with p upserted, the entry as stored, and
// the entry it replaced, if any. Cost: clone of one bucket plus the bucket
// table. A replacement whose Info bytes equal the stored info keeps the
// stored string and hands the clone the predecessor's published field
// index: offsets and field strings are unchanged.
func insertView(v *View, p wire.Pointer) (nv *View, e, old Entry, replaced bool) {
	if v.total == 0 {
		e = EntryOf(p)
		return remake(v, splice(v, 0, 0, newBucket([]Entry{e}))), e, Entry{}, false
	}
	bi := v.bucketFor(p.ID)
	b := v.buckets[bi].bucket
	off, found := b.find(p.ID)
	if found {
		old = b.ents[off]
		e = old
		e.Addr, e.Level = p.Addr, p.Level
		keep := old.info == string(p.Info)
		if !keep {
			e.info = string(p.Info)
		}
		ents := make([]Entry, len(b.ents))
		copy(ents, b.ents)
		ents[off] = e
		nb := newBucket(ents)
		if keep {
			nb.index.Store(b.index.Load())
		}
		return remake(v, splice(v, bi, bi+1, nb)), e, old, true
	}
	e = EntryOf(p)
	ents := make([]Entry, 0, len(b.ents)+1)
	ents = append(ents, b.ents[:off]...)
	ents = append(ents, e)
	ents = append(ents, b.ents[off:]...)
	if len(ents) <= maxBucket {
		return remake(v, splice(v, bi, bi+1, newBucket(ents))), e, Entry{}, false
	}
	mid := len(ents) / 2
	left := make([]Entry, mid)
	copy(left, ents[:mid])
	return remake(v, splice(v, bi, bi+1, newBucket(left), newBucket(ents[mid:]))), e, Entry{}, false
}

// removeView returns a new view without id, the removed entry, and whether
// id was present. Shrinking buckets merge into a neighbor when the combined
// size stays below the split point, keeping the bucket count bounded under
// removal-heavy churn.
func removeView(v *View, id nodeid.ID) (*View, Entry, bool) {
	if v.total == 0 {
		return nil, Entry{}, false
	}
	bi := v.bucketFor(id)
	b := v.buckets[bi]
	off, found := b.find(id)
	if !found {
		return nil, Entry{}, false
	}
	old := b.ents[off]
	ents := make([]Entry, 0, len(b.ents)-1)
	ents = append(ents, b.ents[:off]...)
	ents = append(ents, b.ents[off+1:]...)

	lo, hi := bi, bi+1 // replaced range [lo, hi) in the old bucket table
	var repl []*bucket
	switch {
	case len(ents) == 0:
		repl = nil
	case len(ents) < minBucket && len(v.buckets) > 1:
		// Merge into the smaller adjacent neighbor when the result
		// stays below the split point; otherwise keep the small bucket.
		ni := -1
		if bi > 0 {
			ni = bi - 1
		}
		if bi+1 < len(v.buckets) &&
			(ni < 0 || len(v.buckets[bi+1].ents) < len(v.buckets[ni].ents)) {
			ni = bi + 1
		}
		if ni >= 0 && len(ents)+len(v.buckets[ni].ents) <= maxBucket {
			n := v.buckets[ni]
			merged := make([]Entry, 0, len(ents)+len(n.ents))
			if ni < bi {
				merged = append(merged, n.ents...)
				merged = append(merged, ents...)
				lo = ni
			} else {
				merged = append(merged, ents...)
				merged = append(merged, n.ents...)
				hi = ni + 1
			}
			repl = []*bucket{newBucket(merged)}
		} else {
			repl = []*bucket{newBucket(ents)}
		}
	default:
		repl = []*bucket{newBucket(ents)}
	}
	return remake(v, splice(v, lo, hi, repl...)), old, true
}

// splice returns a fresh bucket table: v's with rows [lo, hi) replaced by
// repl.
func splice(v *View, lo, hi int, repl ...*bucket) []bucketRef {
	t := make([]bucketRef, 0, len(v.buckets)-(hi-lo)+len(repl))
	t = append(t, v.buckets[:lo]...)
	for _, b := range repl {
		t = append(t, bucketRef{bucket: b})
	}
	return append(t, v.buckets[hi:]...)
}

// remake assembles the successor view over a fresh bucket table: next
// epoch, recomputed start offsets and level histogram. The level recount
// walks the per-bucket tables (not the entries), so it is
// O(buckets · levelSlots) on top of the O(buckets) table copy.
func remake(v *View, buckets []bucketRef) *View {
	nv := &View{epoch: v.epoch + 1, buckets: buckets}
	t := 0
	for i := range buckets {
		b := &buckets[i]
		b.start = t
		t += len(b.ents)
		for l := int(b.minLevel); l >= 0 && l <= int(b.maxLevel); l++ {
			if c := b.levels[l]; c > 0 {
				nv.levels[l] += int32(c)
			}
		}
	}
	nv.total = t
	return nv
}
