package des

// Envelope is one unit of cross-shard work: a payload to be scheduled on
// the destination shard's engine at an absolute instant, carrying the
// shard-invariant tie-break key it must be ordered by (see AtKey).
type Envelope[T any] struct {
	// Dst is the destination shard index.
	Dst int
	// At is the absolute virtual time the payload takes effect.
	At Time
	// Key is the deterministic tie-break for same-instant effects.
	Key uint64
	// Payload is the shard-defined work item (a message, a count delta).
	Payload T
}

// Mailbox accumulates the envelopes one shard produces for others during
// a window. It is single-writer: exactly one shard appends to it while
// windows execute, and the barrier (single-threaded, between windows)
// drains every shard's mailbox in shard order — so the combined drain
// order is (producing shard, production seq), which together with each
// envelope's Key makes cross-shard delivery order independent of worker
// scheduling. The zero Mailbox is ready to use.
type Mailbox[T any] struct {
	queue   []Envelope[T]
	drained uint64
}

// Put appends one envelope. Only the owning shard's worker may call it.
func (m *Mailbox[T]) Put(env Envelope[T]) {
	m.queue = append(m.queue, env)
}

// Len returns the number of queued envelopes.
func (m *Mailbox[T]) Len() int { return len(m.queue) }

// Drain hands every queued envelope to fn in production order and
// empties the mailbox, keeping its capacity for the next window. Only
// the barrier may call it.
func (m *Mailbox[T]) Drain(fn func(Envelope[T])) {
	m.drained += uint64(len(m.queue))
	for i := range m.queue {
		fn(m.queue[i])
		m.queue[i] = Envelope[T]{} // release payload references promptly
	}
	m.queue = m.queue[:0]
}

// Drained returns the lifetime count of envelopes handed to Drain — the
// cross-shard traffic volume, for instrumentation.
func (m *Mailbox[T]) Drained() uint64 { return m.drained }
