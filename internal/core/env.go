package core

import (
	"peerwindow/internal/des"
	"peerwindow/internal/wire"
	"peerwindow/internal/xrand"
)

// Timer is a cancellable pending callback, satisfied by des.Handle and by
// the live transport's timers.
type Timer interface {
	// Cancel stops the timer; it reports whether the timer was still
	// pending.
	Cancel() bool
}

// Env is everything a Node needs from its runtime. The discrete-event
// simulator and the live goroutine transport both implement it; the Node
// itself contains no goroutines, no wall-clock time and no I/O.
//
// All Env methods are invoked from the Node's single logical thread of
// control (the event that is currently executing); implementations must
// deliver messages and fire timers back into that same serialized
// context.
type Env interface {
	// Now returns the current virtual (or wall) time.
	Now() des.Time
	// Send transmits a message toward msg.To. Delivery is asynchronous
	// and unreliable; there is no error return — loss is detected by the
	// protocol's own acks and timeouts.
	Send(msg wire.Message)
	// SetTimer schedules fn after delay on the node's serialized
	// executor.
	SetTimer(delay des.Time, fn func()) Timer
	// Rand returns the node's deterministic random stream.
	Rand() *xrand.Source
}

// Observer is empty: a node is watched through what it already records —
// its metrics registry (Metrics), its spans (SetSpanSink) and its
// peer-list deltas (SetDeltas). It survives, with NewNode's parameter,
// only because the benchmark module (cmd/pwbench) constructs it; both go
// when that module stops doing so.
type Observer struct{}

// RemoveReason says why a pointer left the peer list.
type RemoveReason uint8

const (
	// RemoveLeave: a leave event announced the departure.
	RemoveLeave RemoveReason = iota + 1
	// RemoveStale: the pointer failed RetryAttempts multicast attempts
	// (§4.2) or a heartbeat timeout (§4.1).
	RemoveStale
	// RemoveExpired: the §4.6 refresh deadline 3·LT_m passed.
	RemoveExpired
	// RemoveShift: the node lowered its own level and shed the pointers
	// outside its new eigenstring.
	RemoveShift
)

// String implements fmt.Stringer.
func (r RemoveReason) String() string {
	switch r {
	case RemoveLeave:
		return "leave"
	case RemoveStale:
		return "stale"
	case RemoveExpired:
		return "expired"
	case RemoveShift:
		return "shift"
	default:
		return "unknown"
	}
}

// DeltaSink receives every peer-list mutation, synchronously from the
// node's executor and in application order: exactly one call per pointer
// added to, changed in, or removed from the list, bulk loads such as
// Restore included, so a sink that starts from an empty list and folds the
// stream always holds a bit-identical copy of the peer list. The query
// plane's snapshot store (internal/query.Store) is the canonical
// implementation. Implementations must not block and must not call back
// into the Node.
type DeltaSink interface {
	// PeerAdded is called after a pointer not previously in the list is
	// inserted.
	PeerAdded(p wire.Pointer)
	// PeerUpdated is called after an existing entry's pointer changes
	// (same ID, different level, address or attached info). It is not
	// called when an upsert leaves the stored pointer bit-identical.
	PeerUpdated(prev, p wire.Pointer)
	// PeerRemoved is called after a pointer is removed, with the entry
	// as it was stored and the reason for the eviction.
	PeerRemoved(p wire.Pointer, reason RemoveReason)
}
