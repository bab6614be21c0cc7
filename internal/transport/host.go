// Package transport runs PeerWindow nodes live. Host is the one live
// node runtime: a core.Node, its query-plane store, a goroutine that
// serializes everything touching them, wall-clock timers and the accessor
// façade. It implements core.Env over a Link, so the exact state machine
// that the discrete-event simulator verifies is what runs here — the
// paper is simulation-only, and this package is the "existing and future
// peer-to-peer systems" integration surface its §3 talks about.
//
// The two things that really differ between deployments are the two Link
// implementations: Network (this package) keeps messages in process behind
// injected transit-stub latency, loss and time dilation; package
// udptransport puts them on a UDP socket with a TCP sidecar.
package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"peerwindow/internal/core"
	"peerwindow/internal/des"
	"peerwindow/internal/metrics"
	"peerwindow/internal/query"
	"peerwindow/internal/trace"
	"peerwindow/internal/wire"
	"peerwindow/internal/xrand"
)

// Link is what a Host needs from the substrate underneath it. Inbound
// traffic does not go through the interface: the link calls Host.Deliver
// from whatever goroutine receives.
type Link interface {
	// Now returns the current virtual time.
	Now() des.Time
	// Wall converts a virtual delay into the wall-clock duration a timer
	// sleeps.
	Wall(d des.Time) time.Duration
	// Send transmits one message. It runs on the executor and must not
	// block it.
	Send(msg wire.Message)
	// Metrics snapshots the link's own net.* instruments for this host.
	Metrics() metrics.Snapshot
	// Close releases the link and returns once every goroutine it started
	// has exited. The host calls it once, after its executor has stopped,
	// so Close never races Send.
	Close()
}

// Host is one live node. All methods are safe from any goroutine except
// the host's own executor (core.Observer-style callbacks and subscription
// filters), where they would deadlock it.
type Host struct {
	link  Link
	node  *core.Node
	store *query.Store
	rng   *xrand.Source

	inbox chan *task
	// free recycles the tasks work crosses the inbox in.
	free chan *task
	quit chan struct{}
	done chan struct{} // closed when loop has returned
	once sync.Once

	sent, received atomic.Uint64

	// Attached by EnableTrace/EnableSpans; executor-owned.
	ring  *trace.Ring
	spans *trace.SpanBuffer
}

// NewHost builds the node for self over link and starts its executor.
// rng becomes the node's private randomness.
func NewHost(cfg core.Config, self wire.Pointer, rng *xrand.Source, link Link) *Host {
	h := &Host{
		link: link,
		rng:  rng,
		// Deep enough that a multicast burst from the socket reader or the
		// latency timers queues instead of stalling its sender.
		inbox: make(chan *task, 1024),
		// A steady receiver has a handful of messages between its reader
		// and its executor; a burst deeper than this just allocates tasks.
		free: make(chan *task, 16),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	h.node = core.NewNode(cfg, h, core.Observer{}, self)
	// The store is attached before Bootstrap/Join, so it folds the window
	// from empty and its views are always exactly the peer list.
	h.store = query.NewStore(nil)
	h.node.SetDeltas(h.store)
	go h.loop() //pwlint:allow locksafe starting the executor does not wait on it
	return h
}

// task is one unit of executor work: a function to run or, when fn is
// nil, an inbound message to hand to the node. Tasks are recycled through
// Host.free and cross the inbox by pointer, so an inbox slot stays one
// word wide however large a message is.
type task struct {
	fn  func()
	msg wire.Message
}

// loop is the executor: everything that touches the node runs here,
// satisfying core.Env's serialization contract.
func (h *Host) loop() {
	defer close(h.done)
	for {
		select {
		case t := <-h.inbox:
			if t.fn != nil {
				t.fn()
			} else {
				h.node.HandleMessage(t.msg)
			}
			*t = task{} // a parked task must not pin a closure or a payload
			select {
			case h.free <- t:
			default:
			}
		case <-h.quit:
			return
		}
	}
}

// newTask returns a blank task, recycled when one is parked.
func (h *Host) newTask() *task {
	select {
	case t := <-h.free:
		return t
	default:
		return new(task)
	}
}

// post queues t for the executor; it drops work after Close.
func (h *Host) post(t *task) {
	select {
	case h.inbox <- t:
	case <-h.quit:
	}
}

// exec posts fn to the executor; it drops work after Close.
func (h *Host) exec(fn func()) {
	t := h.newTask()
	t.fn = fn
	h.post(t)
}

// call runs fn on the executor and waits for it.
func (h *Host) call(fn func()) {
	done := make(chan struct{})
	h.exec(func() {
		fn()
		close(done)
	})
	select {
	case <-done:
	case <-h.quit:
	}
}

// Deliver hands one inbound message to the node. Links call it from any
// goroutine; after Close it is a no-op.
func (h *Host) Deliver(msg wire.Message) {
	h.received.Add(1)
	t := h.newTask()
	t.msg = msg
	h.post(t)
}

// Close stops the host without announcement (a crash as far as the
// overlay is concerned — use Leave for a polite departure) and returns
// once the executor and the link's goroutines have exited. Idempotent.
func (h *Host) Close() {
	h.once.Do(func() {
		h.call(func() { h.node.Stop() })
		close(h.quit)
		<-h.done
		h.link.Close()
	})
}

// read evaluates f on the executor; after Close it returns T's zero value.
func read[T any](h *Host, f func(*core.Node) T) (v T) {
	h.call(func() { v = f(h.node) })
	return v
}

// Self returns the node's current pointer.
func (h *Host) Self() wire.Pointer { return read(h, (*core.Node).Self) }

// Level returns the node's current level.
func (h *Host) Level() int { return read(h, (*core.Node).Level) }

// Pointers returns a snapshot of the node's peer list.
func (h *Host) Pointers() []wire.Pointer {
	return read(h, func(n *core.Node) []wire.Pointer { return n.Peers().Pointers() })
}

// InputRate returns the measured maintenance input bandwidth (bit/s of
// virtual time).
func (h *Host) InputRate() float64 { return read(h, (*core.Node).InputRate) }

// Counters returns how many messages the node handed to its link and how
// many the link delivered to it.
func (h *Host) Counters() (sent, received uint64) {
	return h.sent.Load(), h.received.Load()
}

// MetricsSnapshot merges the protocol instruments (read through the
// executor, so they are consistent with a quiescent point in the node's
// event stream) with the link's net.* instruments and the query plane's.
func (h *Host) MetricsSnapshot() metrics.Snapshot {
	s := read(h, (*core.Node).MetricsSnapshot)
	s.Merge(h.link.Metrics())
	s.Merge(h.store.MetricsSnapshot())
	return s
}

// Query returns the host's query-plane store. Safe from any goroutine;
// reading a view or subscribing never touches the executor.
func (h *Host) Query() *query.Store { return h.store }

// Bootstrap makes this host the first overlay member.
func (h *Host) Bootstrap() { h.call(func() { h.node.Bootstrap() }) }

// Join runs the §4.3 joining process against a bootstrap pointer and
// blocks until it completes, fails, or timeout (wall time) passes.
func (h *Host) Join(bootstrap wire.Pointer, timeout time.Duration) error {
	errc := make(chan error, 1)
	h.exec(func() { h.node.Join(bootstrap, func(err error) { errc <- err }) })
	select {
	case err := <-errc:
		return err
	case <-h.quit:
		return core.ErrJoinFailed
	case <-time.After(timeout):
		return fmt.Errorf("transport: join timed out: %w", core.ErrJoinFailed)
	}
}

// Leave departs politely, multicasting the leave event first, then
// closes the host.
func (h *Host) Leave() {
	h.call(func() { h.node.Leave() })
	h.Close()
}

// SetInfo replaces the node's attached info and announces the change
// (§3).
func (h *Host) SetInfo(info []byte) { h.call(func() { h.node.SetInfo(info) }) }

// SetThreshold adjusts the node's bandwidth budget at runtime (§2
// autonomy).
func (h *Host) SetThreshold(w float64) { h.call(func() { h.node.SetThreshold(w) }) }

// EnableTrace attaches an event ring of the given capacity — protocol
// moments (probe rounds, detections, shifts, retries) stamped with the
// link's clock — and returns it. If a ring is already attached it is
// returned instead and capacity is ignored. Call it before Bootstrap or
// Join.
func (h *Host) EnableTrace(capacity int) *trace.Ring {
	return read(h, func(n *core.Node) *trace.Ring {
		if h.ring == nil {
			h.ring = trace.NewRing(capacity)
			n.SetTrace(h.ring)
		}
		return h.ring
	})
}

// EnableSpans attaches a causal span buffer of the given capacity: the
// node stamps trace IDs on the events it announces and records spans
// (origin, receive, deliver, duplicate, forward, redirect, drop) into
// it. If a buffer is already attached it is returned instead and
// capacity is ignored, so independent consumers (a debug endpoint and a
// telemetry exporter, say) share one. Call it before Bootstrap or Join.
func (h *Host) EnableSpans(capacity int) *trace.SpanBuffer {
	return read(h, func(n *core.Node) *trace.SpanBuffer {
		if h.spans == nil {
			h.spans = trace.NewSpanBuffer(capacity)
			n.SetSpanSink(h.spans)
		}
		return h.spans
	})
}

// --- core.Env ------------------------------------------------------------

// Now implements core.Env.
func (h *Host) Now() des.Time { return h.link.Now() }

// Rand implements core.Env; only the executor goroutine touches it.
func (h *Host) Rand() *xrand.Source { return h.rng }

// Send implements core.Env.
func (h *Host) Send(msg wire.Message) {
	h.sent.Add(1)
	h.link.Send(msg)
}

// timer adapts time.Timer to core.Timer with a fired/cancelled guard so a
// cancelled callback never runs even if the wall timer already fired and
// queued it.
type timer struct {
	state atomic.Int32 // 0 pending, 1 fired, 2 cancelled
	t     *time.Timer
}

func (t *timer) Cancel() bool {
	if t.state.CompareAndSwap(0, 2) {
		t.t.Stop()
		return true
	}
	return false
}

// SetTimer implements core.Env.
func (h *Host) SetTimer(delay des.Time, fn func()) core.Timer {
	t := &timer{}
	t.t = time.AfterFunc(h.link.Wall(delay), func() {
		h.exec(func() {
			if t.state.CompareAndSwap(0, 1) {
				fn()
			}
		})
	})
	return t
}
