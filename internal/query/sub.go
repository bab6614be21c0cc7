package query

import "sync/atomic"

// DeltaKind classifies a window mutation.
type DeltaKind uint8

const (
	// DeltaAdd is a pointer newly admitted to the window.
	DeltaAdd DeltaKind = iota + 1
	// DeltaUpdate is an existing pointer whose level or attached info
	// changed (same ID, different payload).
	DeltaUpdate
	// DeltaRemove is a pointer evicted from the window.
	DeltaRemove
)

// String returns "add", "update" or "remove".
func (k DeltaKind) String() string {
	switch k {
	case DeltaAdd:
		return "add"
	case DeltaUpdate:
		return "update"
	case DeltaRemove:
		return "remove"
	default:
		return "unknown"
	}
}

// Delta is one window mutation as delivered to subscribers. Epoch is the
// epoch of the view that first includes this mutation: replaying a
// subscription's baseline view and then every delta with
// Epoch > baseline.Epoch() reconstructs the live window exactly.
type Delta struct {
	Epoch uint64
	Kind  DeltaKind
	// Entry is the pointer after the mutation (for DeltaRemove, the
	// pointer as it was when evicted).
	Entry Entry
	// Prev is the pre-update pointer; valid only when HasPrev is true
	// (DeltaUpdate deltas).
	Prev    Entry
	HasPrev bool
	// Reason is the removal reason ("leave", "stale", "expired", "shift")
	// for DeltaRemove deltas, empty otherwise.
	Reason string
}

// Sub is a bounded subscription to a store's delta stream.
//
// Contract: the store's writer never blocks on a subscriber. Each delta is
// delivered with a non-blocking send into the subscription's buffered
// channel; if the buffer is full the delta is dropped and counted in
// Dropped(). A subscriber that observes Dropped() > 0 has a gap and should
// resynchronize from a fresh Store.View(). The channel is never closed —
// Close only marks the subscription dead and unregisters it, so the writer
// can never race a send against a close.
type Sub struct {
	store     *Store
	ch        chan Delta
	filter    func(Delta) bool
	baseline  *View
	delivered atomic.Uint64
	dropped   atomic.Uint64
	closed    atomic.Bool
}

// C returns the delta channel. It is never closed; stop receiving after
// calling Close.
func (b *Sub) C() <-chan Delta { return b.ch }

// Baseline returns the view captured at subscription time. Deltas with
// Epoch ≤ Baseline().Epoch() are already reflected in the baseline and
// must be skipped when replaying the stream on top of it.
func (b *Sub) Baseline() *View { return b.baseline }

// Delivered returns the number of deltas delivered into the buffer.
func (b *Sub) Delivered() uint64 { return b.delivered.Load() }

// Dropped returns the number of deltas dropped because the buffer was full.
func (b *Sub) Dropped() uint64 { return b.dropped.Load() }

// Closed reports whether Close has been called.
func (b *Sub) Closed() bool { return b.closed.Load() }

// Close marks the subscription dead and unregisters it from the store.
// Deltas already buffered remain readable from C; no new ones arrive after
// the unregister takes effect. Close is idempotent and safe to call
// concurrently with the writer.
func (b *Sub) Close() {
	if !b.closed.CompareAndSwap(false, true) {
		return
	}
	s := b.store
	for {
		old := s.subs.Load()
		if old == nil {
			break
		}
		list := make([]*Sub, 0, len(*old))
		for _, x := range *old {
			if x != b {
				list = append(list, x)
			}
		}
		if len(list) == len(*old) {
			break
		}
		if s.subs.CompareAndSwap(old, &list) {
			break
		}
	}
}
