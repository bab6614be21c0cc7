// Package query implements the indexed query plane over a node's window:
// immutable copy-on-write snapshots (views) published atomically by the
// protocol path, incremental secondary indexes maintained from window
// deltas, and bounded delta subscriptions with drop accounting.
//
// The design goal is the paper's read pattern at scale: a window of 10^4..10^6
// pointers queried "directly using the attached info" and "looking at the
// level value for powerful nodes" (§3) at millions of lookups per second,
// while the protocol path keeps mutating the window. Readers never take a
// lock: Store publishes each new View through an atomic pointer, so a reader
// holds a consistent, immutable snapshot for as long as it likes and the
// writer never waits for it. See docs/QUERY.md for the full cost model.
package query

import (
	"strings"

	"peerwindow/internal/nodeid"
	"peerwindow/internal/wire"
)

// Entry is one window pointer as stored in a View. The attached info is kept
// as an immutable string so that entries — and the field substrings the
// index holds into them — can be shared freely across view epochs without
// defensive copies.
type Entry struct {
	ID    nodeid.ID
	Addr  wire.Addr
	Level uint8
	info  string
}

// EntryOf converts a wire pointer into an immutable Entry, copying the
// attached info bytes exactly once.
func EntryOf(p wire.Pointer) Entry {
	return Entry{ID: p.ID, Addr: p.Addr, Level: p.Level, info: string(p.Info)}
}

// Info returns the attached info without copying. Callers must treat the
// returned string as the read-only payload it is.
func (e Entry) Info() string { return e.info }

// InfoBytes returns a fresh copy of the attached info as a byte slice, for
// callers that need the wire representation.
func (e Entry) InfoBytes() []byte {
	if e.info == "" {
		return nil
	}
	return []byte(e.info)
}

// Pointer converts the entry back to a wire pointer. The info bytes are
// copied so the caller may mutate them.
func (e Entry) Pointer() wire.Pointer {
	return wire.Pointer{Addr: e.Addr, ID: e.ID, Level: e.Level, Info: e.InfoBytes()}
}

// equalPtr reports whether the entry still describes the given pointer
// bit-for-bit (used by the exactness tests).
func (e Entry) equalPtr(p wire.Pointer) bool {
	return e.ID == p.ID && e.Addr == p.Addr && e.Level == p.Level && e.info == string(p.Info)
}

// eachField calls fn for every ';'-separated field of the entry's info,
// using substrings that share the info's backing array (zero allocations).
// An empty info yields no fields.
func (e Entry) eachField(fn func(f string)) {
	s := e.info
	for len(s) > 0 {
		i := strings.IndexByte(s, ';')
		if i < 0 {
			fn(s)
			return
		}
		if i > 0 {
			fn(s[:i])
		}
		s = s[i+1:]
	}
}

// fieldBound returns an upper bound on the number of fields eachField
// yields: one per separator-delimited segment, empty ones included.
func (e Entry) fieldBound() int {
	if e.info == "" {
		return 0
	}
	return strings.Count(e.info, ";") + 1
}
