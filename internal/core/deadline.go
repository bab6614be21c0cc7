package core

import (
	"fmt"

	"peerwindow/internal/des"
)

// A node's timers are of two shapes: a timerSlot for a timer the node
// holds at most one of at a time, and a deadlineQueue for work of which
// many may wait at once. Both bind their callbacks once, in NewNode, so
// arming one allocates nothing, and a slot forgets its handle the moment
// the timer fires, so a node never cancels a spent handle (see Timer).

// timerSlot is a timer armed at most once at a time: h is the pending
// handle, nil when idle, and fire the callback bound by init.
type timerSlot struct {
	env  Env
	h    Timer
	fire func()
}

// init binds the slot to its node's Env and callback.
func (s *timerSlot) init(env Env, fn func()) {
	s.env = env
	s.fire = func() {
		s.h = nil // spent: forget it before fn, which may re-arm the slot
		fn()
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
type deadlineQueue[T any] struct {
	// items[head:] are the queued entries, deadlines nondecreasing; the
	// popped prefix is zeroed, so it pins no payload.
	items []deadlined[T]
	head  int
	// timer is armed for the head while the queue holds work; ticking is
	// set while the tick runs, so the pushes it makes arm nothing.
	timer   timerSlot
	ticking bool
	// run does a due live entry's work; live, when set, reports whether an
	// entry still has work to do (nil: every entry does).
	run  func(T)
	live func(T) bool
}

// deadlined is one queued entry: v falls due at at.
type deadlined[T any] struct {
	at des.Time
	v  T
}

// init binds the queue to its node's Env and its work.
func (q *deadlineQueue[T]) init(env Env, run func(T), live func(T) bool) {
	q.run, q.live = run, live
	q.timer.init(env, q.fire)
}

// len returns the number of queued entries, dead ones included.
func (q *deadlineQueue[T]) len() int { return len(q.items) - q.head }

// push queues v to fall due delay from now. delay must be the queue's
// constant, so the entry lands in deadline order.
func (q *deadlineQueue[T]) push(delay des.Time, v T) {
	q.dropDead()
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	} else if len(q.items) == cap(q.items) && 2*q.head >= len(q.items) {
		// Full and at least half popped: slide the live part down
		// instead of growing.
		k := copy(q.items, q.items[q.head:])
		clear(q.items[k:])
		q.items, q.head = q.items[:k], 0
	}
	q.items = append(q.items, deadlined[T]{at: q.timer.env.Now() + delay, v: v})
	if !q.timer.armed() && !q.ticking {
		q.arm()
	}
}

// arm sets the timer for the head's deadline.
func (q *deadlineQueue[T]) arm() {
	q.timer.arm(q.items[q.head].at - q.timer.env.Now())
}

// last returns the most recently queued entry, nil when the queue is
// empty.
func (q *deadlineQueue[T]) last() *T {
	if q.len() == 0 {
		return nil
	}
	return &q.items[len(q.items)-1].v
}

// pop removes the head.
func (q *deadlineQueue[T]) pop() T {
	v := q.items[q.head].v
	q.items[q.head] = deadlined[T]{}
	q.head++
	return v
}

// dropDead pops the dead entries off the head.
func (q *deadlineQueue[T]) dropDead() {
	for q.live != nil && q.len() > 0 && !q.live(q.items[q.head].v) {
		q.pop()
	}
}

// fire is the tick: run every due entry in queue order, then re-arm for
// what is left.
func (q *deadlineQueue[T]) fire() {
	q.ticking = true
	now := q.timer.env.Now()
	for q.len() > 0 && q.items[q.head].at <= now {
		if v := q.pop(); q.live == nil || q.live(v) {
			q.run(v)
		}
	}
	q.ticking = false
	q.dropDead()
	if q.len() > 0 {
		q.arm()
	}
}

// stop cancels the armed timer and empties the queue.
func (q *deadlineQueue[T]) stop() {
	q.timer.cancel()
	clear(q.items)
	q.items, q.head = q.items[:0], 0
}

// check verifies the queue's rules: deadlines never decrease from the
// head, and outside the tick a queue holding a live entry has its timer
// armed.
func (q *deadlineQueue[T]) check() error {
	live := false
	for i := q.head; i < len(q.items); i++ {
		if i > q.head && q.items[i].at < q.items[i-1].at {
			return fmt.Errorf("deadline queue out of order at entry %d: %v after %v", i-q.head, q.items[i].at, q.items[i-1].at)
		}
		live = live || q.live == nil || q.live(q.items[i].v)
	}
	if live && !q.timer.armed() && !q.ticking {
		return fmt.Errorf("deadline queue holds %d entries, a live one among them, with no timer armed", q.len())
	}
	return nil
}
