package peerwindow

import (
	"sync"

	"peerwindow/internal/nodeid"
	"peerwindow/internal/query"
)

// View is an immutable snapshot of a peer's window at one epoch, backed by
// the query plane's incremental indexes (see docs/QUERY.md).
//
// Obtaining a View is a single atomic load — it never blocks and never
// waits for the protocol path — and the snapshot never changes afterwards:
// every method returns the same answer no matter how long the View is
// held or what the overlay does meanwhile. The indexed methods (Lookup,
// Strongest, WithField) answer without copying or scanning the whole
// window.
type View struct {
	v *query.View
}

// View returns the peer's current window snapshot. Safe to call from any
// goroutine at any rate; each call is one atomic pointer load.
func (p *Peer) View() View {
	return View{v: p.store.View()}
}

// emptyQV backs the zero View so its methods behave as an empty snapshot.
var emptyQV = query.Empty()

func (v View) qv() *query.View {
	if v.v == nil {
		return emptyQV
	}
	return v.v
}

// Epoch returns the snapshot's epoch, which increases by one per window
// mutation. Two Views of the same peer with equal epochs are identical.
func (v View) Epoch() uint64 { return v.qv().Epoch() }

// Len returns the number of pointers in the snapshot, without
// materializing them.
func (v View) Len() int { return v.qv().Len() }

// MinLevel returns the smallest level present, or -1 for an empty
// snapshot. O(1): cached when the snapshot is published.
func (v View) MinLevel() int { return v.qv().MinLevel() }

// CountAtLevel returns how many pointers announce exactly level l. It
// scans the buckets of about 128 pointers whose level range covers l.
func (v View) CountAtLevel(l int) int { return v.qv().CountAtLevel(l) }

// Each calls fn for every pointer in ascending ID order until fn returns
// false. The Ref accessor reads the underlying entry without conversions
// or copies; it is only valid during the call.
func (v View) Each(fn func(Ref) bool) {
	v.qv().Each(func(e query.Entry) bool { return fn(Ref{e: e}) })
}

// Lookup returns the pointer with the given hex ID, if the snapshot holds
// it. O(log N).
func (v View) Lookup(id string) (Pointer, bool) {
	nid, err := nodeid.Parse(id)
	if err != nil {
		return Pointer{}, false
	}
	e, ok := v.qv().Get(nid)
	if !ok {
		return Pointer{}, false
	}
	return refToPublic(e), true
}

// Strongest returns up to k pointers with the smallest level values —
// "looking at the level value for powerful nodes" (§3) — by ascending
// level, ID order within a level. No sort: it walks the levels up from
// MinLevel over the buckets whose level range covers each.
func (v View) Strongest(k int) []Pointer {
	return entriesToPublic(v.qv().Strongest(k))
}

// WithField returns the pointers whose attached info contains the exact
// ';'-separated field, e.g. WithField("os=linux") over infos like
// "os=linux;rel=stable". Sub-linear against the field index: buckets
// without a matching field are never touched.
func (v View) WithField(field string) []Pointer {
	return entriesToPublic(v.qv().WithField(field))
}

// InfoContains returns the pointers whose attached info contains substr,
// by a scan of every pointer's info.
func (v View) InfoContains(substr string) []Pointer {
	return entriesToPublic(v.qv().InfoContains(substr))
}

// ByInfo returns the pointers whose attached info satisfies pred —
// "directly using the attached info" (§3). An arbitrary predicate cannot
// use the index, so this scans; pred receives the stored info bytes.
func (v View) ByInfo(pred func(info []byte) bool) []Pointer {
	var out []Pointer
	v.qv().Each(func(e query.Entry) bool {
		if pred(e.InfoBytes()) {
			out = append(out, refToPublic(e))
		}
		return true
	})
	return out
}

// CountWhere returns how many pointers satisfy pred, scanning without any
// per-pointer allocation.
func (v View) CountWhere(pred func(Ref) bool) int {
	return v.qv().CountWhere(func(e query.Entry) bool { return pred(Ref{e: e}) })
}

// TopK returns up to k pointers maximizing score, best first, breaking
// score ties in ID order. Pointers for which score returns ok=false are
// excluded. The scan keeps only k candidates (O(N·log k) time, O(k)
// space); score must not return NaN.
func (v View) TopK(k int, score func(Ref) (float64, bool)) []Pointer {
	return entriesToPublic(v.qv().TopK(k, func(e query.Entry) (float64, bool) {
		return score(Ref{e: e})
	}))
}

// Sample returns up to k pointers drawn uniformly without replacement,
// reproducible from seed.
func (v View) Sample(k int, seed uint64) []Pointer {
	return entriesToPublic(v.qv().Sample(k, seed))
}

// Ref is a zero-copy accessor for one pointer inside a View. It is valid
// only during the Each/CountWhere/TopK callback that produced it; call
// Pointer to keep a copy.
type Ref struct {
	e query.Entry
}

// ID returns the node's identifier as 32 hex digits. This formats the ID
// (one allocation) — compare Info or Level first when filtering.
func (r Ref) ID() string { return r.e.ID.String() }

// Level returns the node's announced level.
func (r Ref) Level() int { return int(r.e.Level) }

// Addr returns the node's opaque network address.
func (r Ref) Addr() uint64 { return uint64(r.e.Addr) }

// Info returns the attached info as a string without copying. The string
// is immutable and safe to retain.
func (r Ref) Info() string { return r.e.Info() }

// Pointer converts the entry to a public Pointer, copying the info.
func (r Ref) Pointer() Pointer { return refToPublic(r.e) }

func refToPublic(e query.Entry) Pointer {
	return Pointer{
		ID:    e.ID.String(),
		Addr:  uint64(e.Addr),
		Level: int(e.Level),
		Info:  e.InfoBytes(),
	}
}

func entriesToPublic(es []query.Entry) []Pointer {
	out := make([]Pointer, len(es))
	for i := range es {
		out[i] = refToPublic(es[i])
	}
	return out
}

// ChangeKind classifies a WindowEvent.
type ChangeKind uint8

const (
	// ChangeAdded: the pointer entered the window.
	ChangeAdded ChangeKind = iota + 1
	// ChangeUpdated: the pointer's level or attached info changed.
	ChangeUpdated
	// ChangeRemoved: the pointer left the window.
	ChangeRemoved
)

// String returns "added", "updated" or "removed".
func (k ChangeKind) String() string {
	switch k {
	case ChangeAdded:
		return "added"
	case ChangeUpdated:
		return "updated"
	case ChangeRemoved:
		return "removed"
	default:
		return "unknown"
	}
}

// WindowEvent is one window mutation delivered to a Subscription. Epoch
// is the epoch of the View that first includes the mutation, so a stream
// aligns exactly with Subscription.Baseline: replay every event with
// Epoch > Baseline().Epoch() on top of the baseline to track the window.
type WindowEvent struct {
	Epoch uint64
	Kind  ChangeKind
	// Reason explains a removal ("leave", "stale", "expired", "shift");
	// empty for other kinds.
	Reason string
	d      query.Delta
}

// Pointer returns the pointer after the mutation (for removals, as it was
// when evicted).
func (ev WindowEvent) Pointer() Pointer { return refToPublic(ev.d.Entry) }

// Ref returns a zero-copy accessor for the mutated pointer.
func (ev WindowEvent) Ref() Ref { return Ref{e: ev.d.Entry} }

// Prev returns the pre-update pointer for ChangeUpdated events.
func (ev WindowEvent) Prev() (Pointer, bool) {
	if !ev.d.HasPrev {
		return Pointer{}, false
	}
	return refToPublic(ev.d.Prev), true
}

func toWindowEvent(d query.Delta) WindowEvent {
	ev := WindowEvent{Epoch: d.Epoch, Reason: d.Reason, d: d}
	switch d.Kind {
	case query.DeltaAdd:
		ev.Kind = ChangeAdded
	case query.DeltaUpdate:
		ev.Kind = ChangeUpdated
	case query.DeltaRemove:
		ev.Kind = ChangeRemoved
	}
	return ev
}

// SubscribeOption customizes one Subscribe call.
type SubscribeOption func(*subscribeConfig)

type subscribeConfig struct {
	buffer int
	filter func(WindowEvent) bool
}

// SubscribeBuffer sets the subscription's buffer capacity (default 256).
// When the buffer is full the protocol path drops events rather than
// blocking; drops are counted in Subscription.Dropped.
func SubscribeBuffer(n int) SubscribeOption {
	return func(c *subscribeConfig) { c.buffer = n }
}

// SubscribeFilter keeps only events satisfying pred. The predicate runs
// on the peer's protocol path, with the overlay's lock held while Spawn
// or Settle runs: it must be fast and must not block or call back into
// the overlay, which would deadlock.
func SubscribeFilter(pred func(WindowEvent) bool) SubscribeOption {
	return func(c *subscribeConfig) { c.filter = pred }
}

// Subscription is a bounded stream of window mutations — the push
// counterpart of polling View. See docs/QUERY.md for the backpressure
// contract.
type Subscription struct {
	inner *query.Sub
	out   chan WindowEvent
	done  chan struct{}
	once  sync.Once
}

// Subscribe registers for the peer's window changes: every pointer added,
// updated or removed after the subscription is delivered as a
// WindowEvent, in application order. The protocol path never blocks on a
// subscriber — when the buffer is full, events are dropped and counted
// (Dropped); a subscriber that observes drops should resynchronize from a
// fresh View. Baseline returns the snapshot the stream is aligned with.
// Close releases the subscription; Events is closed after Close.
//
// Events are produced while Spawn or Settle runs the overlay, so a filter
// (SubscribeFilter) runs inside that call, with the overlay's lock held.
func (p *Peer) Subscribe(opts ...SubscribeOption) *Subscription {
	var c subscribeConfig
	for _, opt := range opts {
		opt(&c)
	}
	var filter func(query.Delta) bool
	if c.filter != nil {
		pred := c.filter
		filter = func(d query.Delta) bool { return pred(toWindowEvent(d)) }
	}
	inner := p.store.Subscribe(c.buffer, filter)
	s := &Subscription{
		inner: inner,
		out:   make(chan WindowEvent, cap(inner.C())),
		done:  make(chan struct{}),
	}
	go s.pump()
	return s
}

// pump moves deltas from the inner (protocol-facing) buffer to the public
// channel, converting lazily. It lives outside the protocol path: if the
// consumer stalls, the pump stalls, the inner buffer fills, and the
// protocol path starts dropping — never blocking.
func (s *Subscription) pump() {
	defer close(s.out)
	in := s.inner.C()
	for {
		select {
		case d := <-in:
			select {
			case s.out <- toWindowEvent(d):
			case <-s.done:
				return
			}
		case <-s.done:
			return
		}
	}
}

// Events returns the event channel. It is closed after Close (events
// buffered at that moment may be discarded).
func (s *Subscription) Events() <-chan WindowEvent { return s.out }

// Baseline returns the window snapshot the event stream is aligned with:
// events with Epoch ≤ Baseline().Epoch() are already part of it.
func (s *Subscription) Baseline() View { return View{v: s.inner.Baseline()} }

// Dropped returns how many events were discarded because the buffer was
// full. A non-zero value means the stream has a gap.
func (s *Subscription) Dropped() uint64 { return s.inner.Dropped() }

// Close ends the subscription: the peer stops delivering events and
// Events is closed. Idempotent; safe from any goroutine.
func (s *Subscription) Close() {
	s.once.Do(func() {
		s.inner.Close()
		close(s.done)
	})
}
