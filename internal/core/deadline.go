package core

import (
	"fmt"

	"peerwindow/internal/des"
	"peerwindow/internal/freelist"
)

// A node's timers are of two shapes: a timerSlot for a timer the node
// holds at most one of at a time, and a deadlineQueue for work of which
// many may wait at once. Their callbacks are method expressions on Node,
// and each binds one closure, in NewNode, so arming one allocates
// nothing; a slot forgets its handle the moment the timer fires, so a
// node never cancels a spent handle (see Timer).

// timerSlot is a timer armed at most once at a time: h is the pending
// handle, nil when idle, and fire the callback bound by init.
type timerSlot struct {
	env  Env
	h    Timer
	fire func()
}

// init binds the slot to node n and its callback fn, a method expression
// such as (*Node).probeRound.
func (s *timerSlot) init(n *Node, fn func(*Node)) {
	s.env = n.env
	s.fire = func() {
		s.h = nil // spent: forget it before fn, which may re-arm the slot
		fn(n)
	}
}

// arm sets the timer delay from now; the slot must be idle.
func (s *timerSlot) arm(delay des.Time) {
	s.h = s.env.SetTimer(delay, s.fire)
}

func (s *timerSlot) armed() bool { return s.h != nil }

// cancel disarms a pending timer; an idle slot is left as it is.
func (s *timerSlot) cancel() {
	if s.h != nil {
		s.h.Cancel()
		s.h = nil
	}
}

// deadlineQueue is a node's FIFO of work that falls due a fixed delay
// after it was queued: the ack timeouts of reliable sends (AckTimeout),
// the forward hops of delivered events (ForwardDelay), the rare
// self-defense re-announcements (AckTimeout) and the heartbeat waits of
// the ring probe (ProbeTimeout). The delay is a per-node constant, so
// entries are queued in deadline order and the head is always due first;
// one Env timer, armed for the head, stands in for a timer per entry.
//
// The rules:
//   - push appends an entry and arms the timer only when none is armed;
//   - the tick pops the due entries in queue order, runs each live one
//     (work it queues goes to the tail, later than anything due now) and
//     re-arms at the new head's exact deadline, so every entry still runs
//     at its own deadline;
//   - dead entries (an answered send) are skipped when popped, and both
//     push and the tick drop them off the head, so the queue stays bounded
//     even under an Env whose timers never fire;
//   - Stop cancels the armed timer and empties the queue.
//
// The entries live in a chain of fixed-size segments drawn from the
// node's pool (ChunkPool), which every node of a simulator cluster shares:
// a segment goes back to the pool the moment its last entry is popped,
// so a queue holds storage only while it holds work, and a burst grows
// the pool once for the whole cluster instead of every node's queue.
type deadlineQueue[T any] struct {
	// The entries are head.e[hi:] through tail.e[:ti], chained through
	// segment.next, n of them, deadlines nondecreasing; head and tail are
	// nil when the queue is empty. A popped slot is zeroed, so it pins no
	// payload.
	head, tail *segment[T]
	hi, ti, n  int
	pool       *freelist.List[segment[T], *segment[T]]
	// timer is armed for the head while the queue holds work; ticking is
	// set while the tick runs, so the pushes it makes arm nothing.
	timer   timerSlot
	ticking bool
	// run does a due live entry's work on node; live, when set, reports
	// whether an entry still has work to do (nil: every entry does). Both
	// are method expressions on Node.
	node *Node
	run  func(*Node, T)
	live func(*Node, T) bool
}

// deadlined is one queued entry: v falls due at at.
type deadlined[T any] struct {
	at des.Time
	v  T
}

// segLen is how many entries a queue segment holds.
const segLen = 8

// segment is one run of a queue's entries.
type segment[T any] struct {
	next *segment[T]
	e    [segLen]deadlined[T]
}

// Link implements freelist.Linked.
func (s *segment[T]) Link() **segment[T] { return &s.next }

// init binds the queue to node n, the pool its segments come from and
// its work; the tick is the one closure it makes.
func (q *deadlineQueue[T]) init(n *Node, pool *freelist.List[segment[T], *segment[T]], run func(*Node, T), live func(*Node, T) bool) {
	q.node, q.pool = n, pool
	q.run, q.live = run, live
	q.timer = timerSlot{env: n.env, fire: q.fire}
}

// len returns the number of queued entries, dead ones included.
func (q *deadlineQueue[T]) len() int { return q.n }

// front returns the head entry; the queue must not be empty.
func (q *deadlineQueue[T]) front() *deadlined[T] { return &q.head.e[q.hi] }

// back returns the most recently queued entry; the queue must not be
// empty.
func (q *deadlineQueue[T]) back() *deadlined[T] { return &q.tail.e[q.ti-1] }

// push queues v to fall due delay from now. delay must be the queue's
// constant, so the entry lands in deadline order.
func (q *deadlineQueue[T]) push(delay des.Time, v T) {
	q.dropDead()
	if q.tail == nil || q.ti == segLen {
		s := q.pool.Get()
		if q.tail == nil {
			q.head, q.hi = s, 0
		} else {
			q.tail.next = s
		}
		q.tail, q.ti = s, 0
	}
	q.tail.e[q.ti] = deadlined[T]{at: q.timer.env.Now() + delay, v: v}
	q.ti++
	q.n++
	if !q.timer.armed() && !q.ticking {
		q.arm()
	}
}

// arm sets the timer for the head's deadline.
func (q *deadlineQueue[T]) arm() {
	q.timer.arm(q.front().at - q.timer.env.Now())
}

// last returns the most recently queued entry, nil when the queue is
// empty.
func (q *deadlineQueue[T]) last() *T {
	if q.n == 0 {
		return nil
	}
	return &q.back().v
}

// pop removes the head, returning its segment to the pool once the
// segment is spent.
//
//pwlint:noalloc
func (q *deadlineQueue[T]) pop() T {
	e := q.front()
	v := e.v
	*e = deadlined[T]{}
	q.hi++
	q.n--
	if q.n == 0 || q.hi == segLen {
		s := q.head
		q.head, q.hi = s.next, 0
		if q.n == 0 {
			q.head, q.tail, q.ti = nil, nil, 0
		}
		q.pool.Put(s)
	}
	return v
}

// dropDead pops the dead entries off the head.
func (q *deadlineQueue[T]) dropDead() {
	for q.live != nil && q.n > 0 && !q.live(q.node, q.front().v) {
		q.pop()
	}
}

// fire is the tick: run every due entry in queue order, then re-arm for
// what is left.
func (q *deadlineQueue[T]) fire() {
	q.timer.h = nil // spent
	q.ticking = true
	now := q.timer.env.Now()
	for q.n > 0 && q.front().at <= now {
		if v := q.pop(); q.live == nil || q.live(q.node, v) {
			q.run(q.node, v)
		}
	}
	q.ticking = false
	q.dropDead()
	if q.n > 0 {
		q.arm()
	}
}

// stop cancels the armed timer and empties the queue, returning its
// segments to the pool.
func (q *deadlineQueue[T]) stop() {
	q.timer.cancel()
	for q.n > 0 {
		q.pop()
	}
}

// each calls fn on every queued entry, head first.
func (q *deadlineQueue[T]) each(fn func(e *deadlined[T])) {
	s, i := q.head, q.hi
	for k := 0; k < q.n; k++ {
		if i == segLen {
			s, i = s.next, 0
		}
		fn(&s.e[i])
		i++
	}
}

// check verifies the queue's rules: its segments hold exactly its count
// of entries, deadlines never decrease from the head, and outside the
// tick a queue holding a live entry has its timer armed.
func (q *deadlineQueue[T]) check() error {
	if err := q.checkChain(); err != nil {
		return err
	}
	live, i := false, 0
	var prev des.Time
	var err error
	q.each(func(e *deadlined[T]) {
		if err == nil && i > 0 && e.at < prev {
			err = fmt.Errorf("deadline queue out of order at entry %d: %v after %v", i, e.at, prev)
		}
		live = live || q.live == nil || q.live(q.node, e.v)
		prev = e.at
		i++
	})
	if err != nil {
		return err
	}
	if live && !q.timer.armed() && !q.ticking {
		return fmt.Errorf("deadline queue holds %d entries, a live one among them, with no timer armed", q.n)
	}
	return nil
}

// checkChain verifies the segment chain against the count: an empty
// queue holds no segment, and otherwise the chain runs from head to
// tail, holding n entries between the head and tail offsets.
func (q *deadlineQueue[T]) checkChain() error {
	if q.n == 0 {
		if q.head != nil || q.tail != nil {
			return fmt.Errorf("empty deadline queue holds segments")
		}
		return nil
	}
	if q.head == nil || q.tail == nil || q.tail.next != nil || q.hi >= segLen || q.ti < 1 || q.ti > segLen {
		return fmt.Errorf("deadline queue of %d entries has a broken segment chain", q.n)
	}
	held := segLen - q.hi
	for s := q.head; s != q.tail; s = s.next {
		if s.next == nil || held > q.n+segLen {
			return fmt.Errorf("deadline queue's segment chain does not reach its tail")
		}
		held += segLen
	}
	if held -= segLen - q.ti; held != q.n {
		return fmt.Errorf("deadline queue counts %d entries, its segments hold %d", q.n, held)
	}
	return nil
}
