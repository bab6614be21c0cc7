package core

import (
	"fmt"

	"peerwindow/internal/des"
)

// deadlineQueue is a node's FIFO of work that falls due a fixed delay
// after it was queued: the ack timeouts of reliable sends (AckTimeout),
// the forward hops of delivered events (ForwardDelay) and the rare
// self-defense re-announcements (AckTimeout). The delay is a per-node
// constant, so entries are queued in deadline order and the head is
// always due first; one Env timer, armed for the head, stands in for a
// timer per entry.
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
	env Env
	// items[head:] are the queued entries, deadlines nondecreasing; the
	// popped prefix is zeroed, so it pins no payload.
	items []deadlined[T]
	head  int
	// timer is the Env timer armed for the head, nil when none is; ticking
	// is set while the tick runs, so the pushes it makes arm nothing.
	timer   Timer
	ticking bool
	// run does a due live entry's work; live, when set, reports whether an
	// entry still has work to do (nil: every entry does); tick is the
	// timer callback, bound once.
	run  func(T)
	live func(T) bool
	tick func()
}

// deadlined is one queued entry: v falls due at at.
type deadlined[T any] struct {
	at des.Time
	v  T
}

// init binds the queue to its node's Env and its work.
func (q *deadlineQueue[T]) init(env Env, run func(T), live func(T) bool) {
	q.env, q.run, q.live = env, run, live
	q.tick = q.fire
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
	q.items = append(q.items, deadlined[T]{at: q.env.Now() + delay, v: v})
	if q.timer == nil && !q.ticking {
		q.arm()
	}
}

// arm sets the timer for the head's deadline.
func (q *deadlineQueue[T]) arm() {
	q.timer = q.env.SetTimer(q.items[q.head].at-q.env.Now(), q.tick)
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
	q.timer, q.ticking = nil, true
	now := q.env.Now()
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
	if q.timer != nil {
		q.timer.Cancel()
		q.timer = nil
	}
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
	if live && q.timer == nil && !q.ticking {
		return fmt.Errorf("deadline queue holds %d entries, a live one among them, with no timer armed", q.len())
	}
	return nil
}
