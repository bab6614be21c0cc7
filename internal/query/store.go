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
// Concurrency contract: one caller at a time — the node's protocol path,
// serialized by the simulator's event loop or a live host's lock — calls
// the DeltaSink methods. Any
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
// degrades to an update so the store can never diverge from the peer list;
// its Prev is the entry the store held.
func (s *Store) PeerAdded(p wire.Pointer) {
	nv, e, old, replaced := insertView(s.cur.Load(), p)
	s.m.deltaAdd.Inc()
	d := Delta{Kind: DeltaAdd, Entry: e}
	if replaced {
		d.Kind, d.Prev, d.HasPrev = DeltaUpdate, old, true
	}
	s.publish(nv, d)
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
		// A field index a row trusts must describe the row exactly;
		// checking every one of the row's generation catches a missed
		// generation bump at the epoch that made it. A row's level range
		// must be its entries' own, or Strongest skips the row.
		for _, r := range nv.rows {
			if x := r.index.Load(); x != nil && x.gen == r.gen && !x.equal(buildFieldIndex(r.ents)) {
				panic("query: field index differs from a fresh build of its bucket")
			}
			if lo, hi := levelRange(r.ents); lo != r.minLevel || hi != r.maxLevel {
				panic("query: row level range differs from its entries")
			}
		}
		s.lastDigest = nv.Digest()
	}
	d.Epoch = nv.epoch
	s.cur.Store(nv)
	s.m.epoch.Set(int64(nv.epoch))
	s.m.entries.Set(int64(nv.total))
	s.m.buckets.Set(int64(len(nv.rows)))
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
// the entry it replaced, if any. An insert clones one bucket's entries
// into a fresh bucket (two when it splits the bucket). A replacement
// clones the entries, keeps their offsets and so keeps the bucket: Info
// bytes equal to the stored info keep the stored string and the row's
// gen, so the bucket's field index stays valid; a changed info bumps the
// gen. An info over wire.MaxInfoLen panics: field index ranks are 16 bits.
func insertView(v *View, p wire.Pointer) (nv *View, e, old Entry, replaced bool) {
	if len(p.Info) > wire.MaxInfoLen {
		panic(fmt.Sprintf("query: pointer info %d bytes exceeds %d", len(p.Info), wire.MaxInfoLen))
	}
	if v.total == 0 {
		e = EntryOf(p)
		return successor(v, 0, 0, newRow([]Entry{e})), e, Entry{}, false
	}
	ri := v.rowFor(p.ID)
	r := &v.rows[ri]
	off, found := r.find(p.ID)
	if found {
		old = r.ents[off]
		e = old
		e.Addr, e.Level = p.Addr, p.Level
		keep := old.info == string(p.Info)
		if !keep {
			e.info = string(p.Info)
		}
		ents := make([]Entry, len(r.ents))
		copy(ents, r.ents)
		ents[off] = e
		nr := row{ents: ents, bucket: r.bucket, gen: r.gen}
		if !keep {
			nr.gen++
		}
		nr.minLevel, nr.maxLevel = levelRange(ents)
		return successor(v, ri, ri+1, nr), e, old, true
	}
	e = EntryOf(p)
	ents := make([]Entry, 0, len(r.ents)+1)
	ents = append(ents, r.ents[:off]...)
	ents = append(ents, e)
	ents = append(ents, r.ents[off:]...)
	if len(ents) <= maxBucket {
		return successor(v, ri, ri+1, newRow(ents)), e, Entry{}, false
	}
	mid := len(ents) / 2
	left := make([]Entry, mid)
	copy(left, ents[:mid])
	return successor(v, ri, ri+1, newRow(left), newRow(ents[mid:])), e, Entry{}, false
}

// removeView returns a new view without id, the removed entry, and whether
// id was present. Shrinking buckets merge into a neighbor when the combined
// size stays below the split point, keeping the bucket count bounded under
// removal-heavy churn.
func removeView(v *View, id nodeid.ID) (*View, Entry, bool) {
	if v.total == 0 {
		return nil, Entry{}, false
	}
	ri := v.rowFor(id)
	r := &v.rows[ri]
	off, found := r.find(id)
	if !found {
		return nil, Entry{}, false
	}
	old := r.ents[off]
	ents := make([]Entry, 0, len(r.ents)-1)
	ents = append(ents, r.ents[:off]...)
	ents = append(ents, r.ents[off+1:]...)

	switch {
	case len(ents) == 0:
		return successor(v, ri, ri+1), old, true
	case len(ents) < minBucket && len(v.rows) > 1:
		// Merge into the smaller adjacent neighbor when the result
		// stays below the split point; otherwise keep the small bucket.
		ni := -1
		if ri > 0 {
			ni = ri - 1
		}
		if ri+1 < len(v.rows) &&
			(ni < 0 || len(v.rows[ri+1].ents) < len(v.rows[ni].ents)) {
			ni = ri + 1
		}
		if ni >= 0 && len(ents)+len(v.rows[ni].ents) <= maxBucket {
			n := v.rows[ni].ents
			merged := make([]Entry, 0, len(ents)+len(n))
			if ni < ri {
				merged = append(append(merged, n...), ents...)
				return successor(v, ni, ri+1, newRow(merged)), old, true
			}
			merged = append(append(merged, ents...), n...)
			return successor(v, ri, ni+1, newRow(merged)), old, true
		}
	}
	return successor(v, ri, ri+1, newRow(ents)), old, true
}

// successor returns the next epoch's view: v's bucket table with rows
// [lo, hi) replaced by repl, in the view's inline array when it fits.
// The one walk over the table sets every row's start and the cached
// minimum level.
func successor(v *View, lo, hi int, repl ...row) *View {
	nv := &View{epoch: v.epoch + 1, minLevel: -1}
	t := nv.inline[:0]
	if n := len(v.rows) - (hi - lo) + len(repl); n > len(nv.inline) {
		t = make([]row, 0, n)
	}
	t = append(t, v.rows[:lo]...)
	t = append(t, repl...)
	t = append(t, v.rows[hi:]...)
	start := 0
	for i := range t {
		r := &t[i]
		r.start = int32(start)
		start += len(r.ents)
		if l := int(r.minLevel); nv.minLevel < 0 || l < nv.minLevel {
			nv.minLevel = l
		}
	}
	nv.rows, nv.total = t, start
	return nv
}
