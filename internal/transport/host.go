// Package transport runs PeerWindow nodes live. Host is the one live
// node runtime: a core.Node, its query-plane store, a mutex that
// serializes everything touching them, a des.Engine holding its timers
// behind one wall-clock timer, and the accessor façade. It implements
// core.Env over a Link, so the exact state machine that the
// discrete-event simulator verifies is what runs here — the paper is
// simulation-only, and this package is the "existing and future
// peer-to-peer systems" integration surface its §3 talks about. The node
// runs only under the host's lock — in Deliver on the link's goroutines,
// in the wall timer's callback and in the API methods — so every
// core.Env call arrives with it held and must not block.
//
// Package udptransport supplies the Link: a UDP socket with a TCP
// sidecar. The in-process overlay of package peerwindow does not need a
// Host; it runs every node inside the simulator.
package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"peerwindow/internal/core"
	"peerwindow/internal/des"
	"peerwindow/internal/invariant"
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
	// Now returns the current time: wall-clock nanoseconds since the link
	// started.
	Now() des.Time
	// Send transmits one message. The host calls it with its lock held,
	// so it must not block.
	Send(msg wire.Message)
	// Metrics snapshots the link's own net.* instruments for this host.
	Metrics() metrics.Snapshot
	// Close releases the link and returns once every goroutine it started
	// has exited. The host calls it once, after its node has stopped and
	// outside its lock, so Close never races Send.
	Close()
}

// Host is one live node. All methods are safe from any goroutine except
// from code the node runs with the host's lock held (delta and span
// sinks and subscription filters), where they would deadlock.
type Host struct {
	link  Link
	node  *core.Node
	store *query.Store
	rng   *xrand.Source

	// mu serializes everything that touches the node, satisfying
	// core.Env's contract. The host is closed exactly when its node is
	// stopped (Close, Leave); then it hands the node only inbound
	// messages, which a stopped node ignores.
	mu sync.Mutex
	// quit is closed by Close, so a Join waiting outside the lock returns.
	quit chan struct{}

	sent, received atomic.Uint64

	// timers holds every pending protocol timer, keyed by link time; wake
	// is the one wall-clock timer, armed for the earliest of them at
	// wakeAt (des.MaxTime when none is armed, -1 while fire runs the due
	// ones). All three are guarded by mu.
	timers *des.Engine
	wake   *time.Timer
	wakeAt des.Time

	// Attached by EnableSpans; guarded by mu.
	spans *trace.SpanBuffer
}

// NewHost builds the node for self over link. rng becomes the node's
// private randomness.
func NewHost(cfg core.Config, self wire.Pointer, rng *xrand.Source, link Link) *Host {
	h := &Host{
		link:   link,
		rng:    rng,
		quit:   make(chan struct{}),
		timers: des.New(),
		wakeAt: des.MaxTime,
	}
	h.wake = time.AfterFunc(time.Duration(des.MaxTime), h.fire)
	h.node = core.NewNode(cfg, h, core.Observer{}, self)
	// The store is attached before Bootstrap/Join, so it folds the window
	// from empty and its views are always exactly the peer list.
	h.store = query.NewStore(nil)
	h.node.SetDeltas(h.store)
	return h
}

// check re-validates the node under the pwinvariants build tag, after
// each message, timer run and API call that drives it. Callers hold mu.
func (h *Host) check() {
	if invariant.Enabled {
		invariant.Check(h.node)
	}
}

// fire is the wall timer's callback: it runs every timer due by the
// link's clock and re-arms the wall timer for the next one. A wake-up
// with nothing due (the timer fired before a Reset moved it) only
// re-arms.
func (h *Host) fire() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.node.Stopped() {
		return
	}
	h.wakeAt = -1 // timers armed by the callbacks are covered below
	h.timers.Run(h.link.Now())
	h.wakeAt = des.MaxTime
	if at, ok := h.timers.NextAt(); ok {
		h.wakeAt = at
		h.wake.Reset(time.Duration(at - h.link.Now()))
	}
	h.check()
}

// Deliver hands one inbound message to the node. Links call it from any
// goroutine; after Close the node ignores it.
func (h *Host) Deliver(msg wire.Message) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.received.Add(1)
	h.node.HandleMessage(msg)
	h.check()
}

// Close stops the host without announcement (a crash as far as the
// overlay is concerned — use Leave for a polite departure) and returns
// once the link's goroutines have exited. Idempotent: a later call
// returns at once.
func (h *Host) Close() { h.stop(false) }

// Leave departs politely, multicasting the leave event first, then
// closes the host.
func (h *Host) Leave() { h.stop(true) }

// stop stops the node, with a leave announcement when polite, and then
// the wall timer and the link.
func (h *Host) stop(polite bool) {
	h.mu.Lock()
	if h.node.Stopped() {
		h.mu.Unlock()
		return
	}
	if polite {
		h.node.Leave() // announces, then stops
	} else {
		h.node.Stop()
	}
	h.wake.Stop()
	close(h.quit)
	h.mu.Unlock()
	h.link.Close()
}

// read evaluates a getter on the node under the lock; after Close it
// returns T's zero value.
func read[T any](h *Host, f func(*core.Node) T) (v T) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.node.Stopped() {
		v = f(h.node)
	}
	return v
}

// Self returns the node's current pointer.
func (h *Host) Self() wire.Pointer { return read(h, (*core.Node).Self) }

// Level returns the node's current level.
func (h *Host) Level() int { return read(h, (*core.Node).Level) }

// InputRate returns the measured maintenance input bandwidth (bit/s of
// virtual time).
func (h *Host) InputRate() float64 { return read(h, (*core.Node).InputRate) }

// Counters returns how many messages the node handed to its link and how
// many the link delivered to it.
func (h *Host) Counters() (sent, received uint64) {
	return h.sent.Load(), h.received.Load()
}

// MetricsSnapshot merges the protocol instruments (read under the
// lock, so they are consistent with a quiescent point in the node's
// event stream) with the link's net.* instruments and the query plane's.
func (h *Host) MetricsSnapshot() metrics.Snapshot {
	s := read(h, (*core.Node).MetricsSnapshot)
	s.Merge(h.link.Metrics())
	s.Merge(h.store.MetricsSnapshot())
	return s
}

// Query returns the host's query-plane store. Safe from any goroutine;
// reading a view or subscribing never takes the host's lock.
func (h *Host) Query() *query.Store { return h.store }

// drive runs f on the node under the lock and re-validates the node;
// after Close it does nothing.
func (h *Host) drive(f func(*core.Node)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.node.Stopped() {
		f(h.node)
		h.check()
	}
}

// Bootstrap makes this host the first overlay member.
func (h *Host) Bootstrap() { h.drive((*core.Node).Bootstrap) }

// Join runs the §4.3 joining process against a bootstrap pointer and
// blocks until it completes, fails, or timeout passes.
func (h *Host) Join(bootstrap wire.Pointer, timeout time.Duration) error {
	errc := make(chan error, 2) // the outcome and the expiry never block
	h.mu.Lock()
	if h.node.Stopped() {
		h.mu.Unlock()
		return core.ErrJoinFailed
	}
	expiry := h.SetTimer(des.Time(timeout), func() {
		errc <- fmt.Errorf("transport: join timed out: %w", core.ErrJoinFailed)
	})
	h.node.Join(bootstrap, func(err error) {
		expiry.Cancel()
		errc <- err
	})
	h.check()
	h.mu.Unlock()
	select {
	case err := <-errc:
		return err
	case <-h.quit:
		return core.ErrJoinFailed
	}
}

// SetInfo replaces the node's attached info and announces the change
// (§3).
func (h *Host) SetInfo(info []byte) { h.drive(func(n *core.Node) { n.SetInfo(info) }) }

// SetThreshold adjusts the node's bandwidth budget at runtime (§2
// autonomy).
func (h *Host) SetThreshold(w float64) { h.drive(func(n *core.Node) { n.SetThreshold(w) }) }

// EnableSpans attaches a span buffer of the given capacity: the node
// stamps trace IDs on the events it announces and records the spans of
// their multicast trees plus every protocol moment (probe rounds,
// retries, detections, shifts, refreshes, expiries), stamped with the
// link's clock. If a buffer is already attached it is returned instead
// and capacity is ignored, so independent consumers (a debug endpoint and
// a telemetry exporter, say) share one. Call it before Bootstrap or Join;
// after Close it returns nil.
func (h *Host) EnableSpans(capacity int) *trace.SpanBuffer {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.node.Stopped() {
		return nil
	}
	if h.spans == nil {
		h.spans = trace.NewSpanBuffer(capacity)
		h.node.SetSpanSink(h.spans)
	}
	return h.spans
}

// --- core.Env ------------------------------------------------------------

// Now implements core.Env.
func (h *Host) Now() des.Time { return h.link.Now() }

// Rand implements core.Env; only code holding the host's lock touches it.
func (h *Host) Rand() *xrand.Source { return h.rng }

// Send implements core.Env.
func (h *Host) Send(msg wire.Message) {
	h.sent.Add(1)
	h.link.Send(msg)
}

// SetTimer implements core.Env: the timer is an event in the host's
// engine at link time Now()+delay, and its handle is the core.Timer. An
// event earlier than every other pending one pulls the wall timer in.
// Like every core.Env call, it runs with the host's lock held.
func (h *Host) SetTimer(delay des.Time, fn func()) core.Timer {
	at := h.link.Now() + delay
	t := h.timers.At(at, fn)
	if at < h.wakeAt {
		h.wakeAt = at
		h.wake.Reset(time.Duration(delay))
	}
	return t
}
