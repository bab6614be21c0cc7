package telemetry

// The producer side of the telemetry plane. An Exporter turns periodic
// snapshots of one node's instruments into delta frames and pushes them
// at a Sink. It is transport-agnostic: pwnode gives it a UDP sink and a
// wall-clock flush loop (Run); the sim harness gives it an in-process
// collector sink and calls Flush from engine events, keeping the whole
// path deterministic.
//
// Loss accounting invariant: every metric delta the exporter computes
// is carried by a frame the sink accepted, never dropped: a flush diffs
// against the snapshot of the last frame the sink accepted, so when the
// sink refuses a frame the next flush carries its deltas too. Spans are
// the opposite trade: a refused frame's spans are dropped and counted, not
// re-queued, because a span batch can be arbitrarily large. Frames the
// network eats after the sink accepted them show up at the collector as
// sequence gaps. So: node totals = collector totals + deltas inside
// seq-gap frames, and every missing frame is visible in either the
// exporter's FramesDropped or the collector's frames_missing.

import (
	"math/rand"
	"sync"
	"time"

	"peerwindow/internal/des"
	"peerwindow/internal/metrics"
	"peerwindow/internal/nodeid"
	"peerwindow/internal/trace"
	"peerwindow/internal/wire"
)

// Sink delivers one encoded frame toward a collector. Send must not
// retain b. A sink that cannot accept the frame returns an error; the
// exporter then counts a frame drop, and its next flush carries the
// frame's metric deltas.
type Sink interface {
	Send(b []byte) error
}

// SinkFunc adapts a function to the Sink interface (a socket write,
// in-process delivery, test fault injection).
type SinkFunc func(b []byte) error

// Send implements Sink.
func (f SinkFunc) Send(b []byte) error { return f(b) }

// ExporterConfig identifies the exporting node and bounds the exporter.
type ExporterConfig struct {
	// Node, Name and ID identify the node in beacons; Node also keys
	// the collector's per-node state.
	Node wire.Addr
	Name string
	ID   nodeid.ID
	// Spans, when non-nil, is drained each flush (SnapshotSince batch
	// draining); evictions between flushes count as span drops.
	Spans *trace.SpanBuffer
}

// maxSpansPerFrame caps a frame's span section so the frame stays inside
// a UDP datagram; excess spans in one flush ride follow-up frames.
const maxSpansPerFrame = 256

// Jitter spreads each flush gap uniformly over ±Jitter×interval so a
// cluster of nodes started together does not synchronize its datagram
// bursts at the collector. The wall-clock loop (Run) and the simulator's
// engine-driven flushes both use it.
const Jitter = 0.2

// Exporter ships one node's telemetry as delta frames. Methods are safe
// for use from a single flushing goroutine (or the sim engine); Stats
// may be read concurrently.
type Exporter struct {
	cfg  ExporterConfig
	sink Sink

	mu     sync.Mutex
	seq    uint64
	acked  metrics.Snapshot // the snapshot of the last delta the sink accepted
	cursor uint64           // span buffer drain cursor

	framesSent    uint64
	framesDropped uint64
	spansDropped  uint64
	regressions   uint64
}

// ExporterStats is a point-in-time copy of the exporter's own counters.
type ExporterStats struct {
	FramesSent    uint64
	FramesDropped uint64
	SpansDropped  uint64
	Regressions   uint64
}

// NewExporter builds an exporter pushing frames at sink.
func NewExporter(cfg ExporterConfig, sink Sink) *Exporter {
	return &Exporter{cfg: cfg, sink: sink}
}

// Stats returns the exporter's cumulative counters.
func (e *Exporter) Stats() ExporterStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return ExporterStats{
		FramesSent:    e.framesSent,
		FramesDropped: e.framesDropped,
		SpansDropped:  e.spansDropped,
		Regressions:   e.regressions,
	}
}

// Flush diffs snap against the last snapshot the sink accepted, drains
// the span buffer, and pushes one or more frames (spans beyond
// maxSpansPerFrame ride follow-up frames carrying no metric delta).
// beacon is embedded in the first frame, with the delta. The error is
// the first sink error, after drop accounting; callers may ignore it
// (the counters already did).
func (e *Exporter) Flush(at des.Time, snap metrics.Snapshot, beacon Beacon) error {
	e.mu.Lock()
	delta, regressed := snap.Diff(e.acked)
	var spans []trace.Span
	if e.cfg.Spans != nil {
		var missed uint64
		spans, e.cursor, missed = e.cfg.Spans.SnapshotSince(e.cursor)
		e.spansDropped += missed
	}
	e.mu.Unlock()

	var firstErr error
	upTo := &snap // the first frame's delta reaches snap
	for {
		batch := spans
		if len(batch) > maxSpansPerFrame {
			batch = batch[:maxSpansPerFrame]
		}
		spans = spans[len(batch):]
		f := &Frame{Node: e.cfg.Node, At: at, Spans: batch}
		if upTo != nil {
			bc := beacon
			if bc.Name == "" {
				bc.Name = e.cfg.Name
			}
			if bc.ID.IsZero() {
				bc.ID = e.cfg.ID
			}
			f.Beacon = &bc
			f.Delta = delta
		}
		if err := e.send(f, upTo, len(regressed)); err != nil && firstErr == nil {
			firstErr = err
		}
		upTo = nil
		if len(spans) == 0 {
			return firstErr
		}
	}
}

// send stamps sequencing and drop counters under the lock, releases it
// for the sink call (locksafe: Send may block), and accounts the
// outcome. A frame carrying a delta up to snapshot snap passes snap and
// the regressions the delta holds: once the sink accepts the frame, the
// next flush diffs against snap and the regressions count.
func (e *Exporter) send(f *Frame, snap *metrics.Snapshot, regressed int) error {
	e.mu.Lock()
	f.Seq = e.seq
	e.seq++
	f.FramesDropped = e.framesDropped
	f.SpansDropped = e.spansDropped
	f.Regressions = e.regressions
	if snap != nil {
		f.Regressions += uint64(regressed)
	}
	e.mu.Unlock()

	err := e.sink.Send(f.Marshal())

	e.mu.Lock()
	switch {
	case err != nil:
		e.framesDropped++
		e.spansDropped += uint64(len(f.Spans))
	case snap != nil:
		e.framesSent++
		e.acked = *snap
		e.regressions += uint64(regressed)
	default:
		e.framesSent++
	}
	e.mu.Unlock()
	return err
}

// LiveConfig parameterizes Run, the wall-clock flush loop used by real
// processes (pwnode). The deterministic harness never calls Run; it
// schedules Flush from engine events instead.
type LiveConfig struct {
	// Interval is the base flush cadence, jittered by ±Jitter.
	Interval time.Duration
	// Now supplies the node's virtual timestamp for frames (for pwnode,
	// nanoseconds since node start).
	Now func() des.Time
	// Snapshot reads the node's current instruments.
	Snapshot func() metrics.Snapshot
	// Beacon reads the node's current beacon state.
	Beacon func() Beacon
}

// Run flushes until stop is closed, then performs one final flush so
// shutdown totals reach the collector. It blocks; run it on its own
// goroutine.
func (e *Exporter) Run(cfg LiveConfig, stop <-chan struct{}) {
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	rng := rand.New(rand.NewSource(int64(e.cfg.Node)*2654435761 + 97))
	timer := time.NewTimer(jittered(cfg.Interval, rng))
	defer timer.Stop()
	for {
		select {
		case <-timer.C:
			e.Flush(cfg.Now(), cfg.Snapshot(), cfg.Beacon())
			timer.Reset(jittered(cfg.Interval, rng))
		case <-stop:
			e.Flush(cfg.Now(), cfg.Snapshot(), cfg.Beacon())
			return
		}
	}
}

func jittered(d time.Duration, rng *rand.Rand) time.Duration {
	span := float64(d) * Jitter
	return time.Duration(float64(d) + span*(2*rng.Float64()-1))
}
