// Package des is the discrete-event simulation engine underneath every
// experiment — our stand-in for ONSP, the MPI/C++ overlay-simulation
// platform the paper ran on (§5, ref [17]).
//
// One simulation run is a single deterministic event loop: events execute
// in (time, key, sequence-number) order, so two runs with the same seed
// replay identically, which is what makes the figure benchmarks
// reproducible. The key is an optional caller-supplied tie-break (see
// AtKey) that stays meaningful when one logical run is partitioned across
// several engines: engine-local sequence numbers depend on how work was
// sharded, while keys derived from protocol state (issuer, per-issuer
// counter) do not, so a sharded run replays the single-engine schedule
// bit-for-bit. Untagged callers leave the key at zero and see the classic
// (time, seq) order unchanged.
//
// Engines are single-threaded; parallelism lives in internal/shard, which
// drives one engine per shard through conservative time windows
// (RunWindow) and exchanges cross-shard work through Mailboxes at window
// barriers. That package is also where cross-run parallelism (independent
// parameter points, seeds, replicas — the ONSP 16-server pattern) lives,
// as shard.RunParallel.
//
// The scheduler is built for throughput: events live in a value-type
// slab indexed by a 4-ary min-heap of slot numbers, with a free list
// recycling slots, so steady-state scheduling performs no allocation.
// Handles carry a (slot, generation) pair, keeping Cancel O(1) and
// making a handle to a recycled slot inert. Cancellation is lazy — a
// cancelled event stays queued until popped — but when dead events
// outnumber live ones past a threshold the heap is compacted in one
// O(n) pass, so workloads that cancel and rearm timers constantly (ring
// probing reschedules on every heartbeat, §4.1) cannot accumulate an
// unbounded backlog of corpses.
package des

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Time is a virtual-clock instant in nanoseconds since the start of the
// simulation.
type Time int64

// Common virtual-time units, mirroring package time.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
	Hour             = 60 * Minute
)

// MaxTime is the largest representable instant; it is used as "never".
const MaxTime = Time(math.MaxInt64)

// Seconds returns the instant expressed in floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Duration converts the virtual instant to a time.Duration for printing.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// String renders the instant using time.Duration formatting.
func (t Time) String() string { return t.Duration().String() }

// FromSeconds builds a virtual instant from floating-point seconds.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// event is one slab slot. A slot is in exactly one of three states:
// queued live (fn != nil, referenced by the heap), queued dead
// (cancelled: fn == nil, still referenced by the heap until popped or
// compacted), or free (fn == nil, on the free list). gen increments
// every time the slot is released, so stale handles cannot act on a
// successor event that recycled the slot.
type event struct {
	at  Time
	key uint64
	seq uint64
	fn  func()
	gen uint32
	tag EventTag
}

// EventTag annotates a scheduled event for choosers: which entity the
// event belongs to and what class of work it is. The engine itself gives
// tags no meaning; they exist so a Chooser (the model checker's
// interposition point) can tell a message delivery at node 3 from a
// timer at node 1 without inspecting closures. The zero tag marks
// harness-internal events a chooser should not reorder.
type EventTag struct {
	// Owner identifies the entity the event acts on (the simulator uses
	// the destination node's address); 0 means untagged.
	Owner uint64
	// Kind is a caller-defined class (the simulator uses "delivery" vs
	// "timer"); 0 means untagged.
	Kind uint8
}

// Choice describes one runnable event offered to a Chooser, identified
// by its scheduling sequence number (unique per engine).
type Choice struct {
	At  Time
	Seq uint64
	Tag EventTag
}

// Decision is a Chooser's verdict for one step: fire (or drop) the
// event at Index in the offered choice slice.
type Decision struct {
	Index int
	// Drop discards the chosen event without running it — the model
	// checker's network-loss branch. Dropping is only meaningful for
	// events whose effect is optional (message deliveries); dropping a
	// timer deadlocks the protocol machinery that armed it.
	Drop bool
}

// Chooser picks which runnable event fires next, turning the engine's
// fixed (time, seq) order into an explorable choice point. The chosen
// event executes at max(Now, Choice.At): picking a later event first
// models the earlier one (a message in flight, say) being delayed, and
// the skipped event stays runnable and fires late when eventually
// chosen. Virtual time never runs backwards.
type Chooser interface {
	Choose(now Time, choices []Choice) Decision
}

// compactMinDead is the floor below which compaction is never
// triggered; tiny queues are cheaper to skim lazily.
const compactMinDead = 256

// Handle refers to a scheduled event and allows cancelling it. The zero
// Handle is valid and refers to nothing.
type Handle struct {
	e    *Engine
	slot int32
	gen  uint32
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. It reports whether the event was
// still pending.
//
//pwlint:noalloc
func (h Handle) Cancel() bool {
	if h.e == nil {
		return false
	}
	ev := &h.e.slab[h.slot]
	if ev.gen != h.gen || ev.fn == nil {
		return false
	}
	ev.fn = nil // release the closure promptly; the corpse stays queued
	h.e.live--
	h.e.maybeCompact()
	return true
}

// Seq returns the engine-wide scheduling sequence number of the event —
// the same number a Chooser sees in Choice.Seq — or 0 when the handle is
// zero or the event already fired or was cancelled.
func (h Handle) Seq() uint64 {
	if h.e == nil {
		return 0
	}
	ev := &h.e.slab[h.slot]
	if ev.gen != h.gen || ev.fn == nil {
		return 0
	}
	return ev.seq
}

// Pending reports whether the event is still scheduled to fire.
func (h Handle) Pending() bool {
	if h.e == nil {
		return false
	}
	ev := &h.e.slab[h.slot]
	return ev.gen == h.gen && ev.fn != nil
}

// Engine is a sequential deterministic event loop. It is not safe for
// concurrent use; run one Engine per goroutine (internal/shard drives
// a set of engines in conservative time windows).
type Engine struct {
	now Time
	seq uint64

	slab []event // all slots, addressed by the heap and by handles
	heap []int32 // slot indices ordered as a 4-ary min-heap by (at, seq)
	free []int32 // released slots available for reuse

	live     int // queued events that have not been cancelled
	executed uint64
	dropped  uint64
	running  bool

	// chooser, when set, decides which runnable event each Step fires
	// (see Chooser); choiceBuf and choiceSlots are its scratch space.
	chooser     Chooser
	choiceBuf   []Choice
	choiceSlots []int32
}

// New returns an Engine with the clock at zero and no pending events.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of live (non-cancelled) scheduled events in
// O(1).
func (e *Engine) Pending() int { return e.live }

// Executed returns how many events have fired so far.
func (e *Engine) Executed() uint64 { return e.executed }

// less orders two slots by (time, key, seq). The key (zero unless the
// event was scheduled with AtKey) breaks ties in a shard-invariant way;
// seq breaks the remaining ties in scheduling order, which makes the
// loop deterministic.
func (e *Engine) less(a, b int32) bool {
	ea, eb := &e.slab[a], &e.slab[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	if ea.key != eb.key {
		return ea.key < eb.key
	}
	return ea.seq < eb.seq
}

// siftUp moves heap[i] toward the root until the heap order holds.
//
//pwlint:noalloc
func (e *Engine) siftUp(i int) {
	h := e.heap
	s := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !e.less(s, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = s
}

// siftDown moves heap[i] toward the leaves until the heap order holds.
//
//pwlint:noalloc
func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	s := h[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if e.less(h[j], h[best]) {
				best = j
			}
		}
		if !e.less(h[best], s) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = s
}

// alloc takes a slot from the free list or grows the slab. The slab
// append is the amortized self-append builder; steady state reuses the
// free list and allocates nothing.
//
//pwlint:noalloc
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		s := e.free[n-1]
		e.free = e.free[:n-1]
		return s
	}
	e.slab = append(e.slab, event{})
	return int32(len(e.slab) - 1)
}

// release returns a slot to the free list and retires its generation.
//
//pwlint:noalloc
func (e *Engine) release(s int32) {
	e.slab[s].fn = nil
	e.slab[s].gen++
	e.free = append(e.free, s)
}

// popMin removes and returns the heap's minimum slot.
//
//pwlint:noalloc
func (e *Engine) popMin() int32 {
	h := e.heap
	s := h[0]
	n := len(h) - 1
	h[0] = h[n]
	e.heap = h[:n]
	if n > 1 {
		e.siftDown(0)
	}
	return s
}

// maybeCompact rebuilds the heap without its dead entries once corpses
// outnumber live events (and are numerous enough to matter). The
// rebuild is one pass over the heap slice plus an O(n) heapify, so the
// amortized cost per cancellation is O(1).
//
//pwlint:noalloc
func (e *Engine) maybeCompact() {
	dead := len(e.heap) - e.live
	if dead <= compactMinDead || dead <= e.live {
		return
	}
	h := e.heap
	w := 0
	for _, s := range h {
		if e.slab[s].fn != nil {
			h[w] = s
			w++
		} else {
			e.release(s)
		}
	}
	e.heap = h[:w]
	// (w-2)/4 truncates toward zero, so w == 0 would yield i == 0 and
	// sift an empty heap; heaps of size <= 1 need no heapify at all.
	if w > 1 {
		for i := (w - 2) / 4; i >= 0; i-- {
			e.siftDown(i)
		}
	}
}

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past (t < Now) panics: in a discrete-event simulation that is always a
// logic bug, and silently clamping would mask it.
func (e *Engine) At(t Time, fn func()) Handle {
	return e.AtTag(t, EventTag{}, fn)
}

// AtTag schedules fn at absolute time t, annotated with tag for
// choosers. Untagged callers should use At.
func (e *Engine) AtTag(t Time, tag EventTag, fn func()) Handle {
	return e.AtKey(t, 0, tag, fn)
}

// AtKey schedules fn at absolute time t with an explicit tie-break key.
// Same-instant events fire in ascending key order regardless of the
// order they were scheduled in — and regardless of which engine of a
// sharded run they were scheduled on, as long as the caller derives keys
// from shard-invariant state (the sharded simulators use the issuing
// entity's identity plus a per-entity counter). Key zero sorts first and
// is what At/AtTag use, so unkeyed callers keep the classic insertion
// order.
//
//pwlint:noalloc
func (e *Engine) AtKey(t Time, key uint64, tag EventTag, fn func()) Handle {
	if fn == nil {
		panic("des: At with nil callback")
	}
	if t < e.now {
		panic(fmt.Sprintf("des: scheduling into the past (%v < %v)", t, e.now)) //pwlint:allow noalloc panic path, the simulation is already dead
	}
	s := e.alloc()
	ev := &e.slab[s]
	ev.at = t
	ev.key = key
	ev.seq = e.seq
	ev.fn = fn
	ev.tag = tag
	e.seq++
	e.heap = append(e.heap, s)
	e.siftUp(len(e.heap) - 1)
	e.live++
	return Handle{e: e, slot: s, gen: ev.gen}
}

// After schedules fn to run delay after the current virtual time.
func (e *Engine) After(delay Time, fn func()) Handle {
	return e.AfterTag(delay, EventTag{}, fn)
}

// AfterTag schedules fn delay after the current virtual time, annotated
// with tag for choosers.
func (e *Engine) AfterTag(delay Time, tag EventTag, fn func()) Handle {
	if delay < 0 {
		panic("des: negative delay")
	}
	return e.AtTag(e.now+delay, tag, fn)
}

// SetChooser installs (or, with nil, removes) the scheduling chooser.
// With a chooser installed, every Step offers the full runnable set and
// fires whichever event the chooser picks; without one, Step keeps the
// default deterministic (time, seq) order. Installing a chooser does not
// disturb pending events, so an explorer can hand a half-run engine back
// to deterministic draining by clearing it.
func (e *Engine) SetChooser(c Chooser) { e.chooser = c }

// Dropped returns how many events a chooser has discarded via
// Decision.Drop.
func (e *Engine) Dropped() uint64 { return e.dropped }

// Runnable returns the live pending events as choices in canonical
// (time, seq) order — the exact slice a chooser would be offered next.
// The result is valid until the next scheduling call.
func (e *Engine) Runnable() []Choice {
	e.collectRunnable()
	return e.choiceBuf
}

// NextAt returns the scheduled time of the earliest live event, skimming
// cancelled corpses off the heap as a side effect. ok is false when no
// live events remain.
//
//pwlint:noalloc
func (e *Engine) NextAt() (t Time, ok bool) {
	for len(e.heap) > 0 {
		top := &e.slab[e.heap[0]]
		if top.fn == nil {
			e.release(e.popMin())
			continue
		}
		return top.at, true
	}
	return 0, false
}

// collectRunnable fills choiceBuf/choiceSlots with the live events in
// (time, seq) order.
func (e *Engine) collectRunnable() {
	e.choiceBuf = e.choiceBuf[:0]
	e.choiceSlots = e.choiceSlots[:0]
	for _, s := range e.heap {
		ev := &e.slab[s]
		if ev.fn == nil {
			continue
		}
		e.choiceBuf = append(e.choiceBuf, Choice{At: ev.at, Seq: ev.seq, Tag: ev.tag})
		e.choiceSlots = append(e.choiceSlots, s)
	}
	sort.Sort(&runnableSort{e})
}

// runnableSort orders choiceBuf and choiceSlots together in canonical
// engine order — (at, key, seq), via the slab — so the offered choice
// slice always matches what Step would fire first.
type runnableSort struct{ e *Engine }

func (r *runnableSort) Len() int { return len(r.e.choiceBuf) }
func (r *runnableSort) Less(i, j int) bool {
	return r.e.less(r.e.choiceSlots[i], r.e.choiceSlots[j])
}
func (r *runnableSort) Swap(i, j int) {
	r.e.choiceBuf[i], r.e.choiceBuf[j] = r.e.choiceBuf[j], r.e.choiceBuf[i]
	r.e.choiceSlots[i], r.e.choiceSlots[j] = r.e.choiceSlots[j], r.e.choiceSlots[i]
}

// Step executes the single earliest pending event — or, with a chooser
// installed, whichever runnable event the chooser picks. It reports
// false when no live events remain.
func (e *Engine) Step() bool {
	if e.chooser != nil {
		return e.chosenStep()
	}
	for len(e.heap) > 0 {
		s := e.popMin()
		ev := &e.slab[s]
		if ev.fn == nil {
			e.release(s)
			continue
		}
		e.now = ev.at
		fn := ev.fn
		e.live--
		e.release(s)
		e.executed++
		fn()
		return true
	}
	return false
}

// chosenStep asks the chooser which runnable event to fire (or drop).
// The chosen event runs at max(now, at): events skipped past their
// scheduled time simply fire late when eventually chosen, which is how a
// chooser models message delay. The fired slot is cancelled in place —
// the heap pops its corpse later — so the heap structure stays valid.
func (e *Engine) chosenStep() bool {
	e.collectRunnable()
	if len(e.choiceBuf) == 0 {
		return false
	}
	d := e.chooser.Choose(e.now, e.choiceBuf)
	if d.Index < 0 || d.Index >= len(e.choiceBuf) {
		panic(fmt.Sprintf("des: chooser picked %d of %d runnable events", d.Index, len(e.choiceBuf)))
	}
	s := e.choiceSlots[d.Index]
	ev := &e.slab[s]
	fn := ev.fn
	ev.fn = nil // corpse: the heap releases it when popped or compacted
	e.live--
	if d.Drop {
		e.dropped++
		e.maybeCompact()
		return true
	}
	if ev.at > e.now {
		e.now = ev.at
	}
	e.executed++
	fn()
	return true
}

// Run executes events in order until the queue drains or the next event
// would fire after deadline. The clock is left at the later of its
// current value and deadline, so a subsequent Run picks up seamlessly.
func (e *Engine) Run(deadline Time) {
	if e.running {
		panic("des: Run re-entered from inside an event")
	}
	if e.chooser != nil {
		// A chooser can fire events out of time order, which makes the
		// deadline skim below meaningless; explorers drive Step directly
		// and clear the chooser before draining.
		panic("des: Run with a Chooser installed (SetChooser(nil) first, or drive Step)")
	}
	e.running = true
	defer func() { e.running = false }()
	for len(e.heap) > 0 {
		// Skim cancelled events off the top without advancing time.
		top := &e.slab[e.heap[0]]
		if top.fn == nil {
			e.release(e.popMin())
			continue
		}
		if top.at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunWindow executes events strictly before limit and advances the clock
// to limit. It is Run with an exclusive bound: a conservative shard
// driver computes a horizon no cross-shard effect can penetrate
// (min next event + lookahead) and lets every shard run its own events
// up to, but not including, that horizon — an event exactly at the
// horizon might have to be ordered against another shard's event at the
// same instant, so it belongs to the next window.
func (e *Engine) RunWindow(limit Time) {
	if e.running {
		panic("des: RunWindow re-entered from inside an event")
	}
	if e.chooser != nil {
		panic("des: RunWindow with a Chooser installed (SetChooser(nil) first, or drive Step)")
	}
	e.running = true
	defer func() { e.running = false }()
	for len(e.heap) > 0 {
		top := &e.slab[e.heap[0]]
		if top.fn == nil {
			e.release(e.popMin())
			continue
		}
		if top.at >= limit {
			break
		}
		e.Step()
	}
	if e.now < limit {
		e.now = limit
	}
}

// RunUntilIdle executes events until none remain. It panics if the event
// count exceeds limit, which guards tests against schedule loops.
func (e *Engine) RunUntilIdle(limit uint64) {
	start := e.executed
	for e.Step() {
		if e.executed-start > limit {
			panic(fmt.Sprintf("des: exceeded %d events before idle", limit))
		}
	}
}
