// Package telemetry is the cluster observability plane: a push-based
// export protocol that ships each node's metric deltas, causal-span
// batches and health beacons to a central collector, plus the collector
// itself — a per-node ring-buffer timeseries store with cluster-level
// /metrics, /timeseries and /health endpoints and the health scoring
// behind cmd/pwtop.
//
// The wire unit is the Frame: one UDP datagram (or one in-process hand-
// off under the sim harness) carrying a beacon and whatever changed
// since the previous flush. Counters travel as monotone deltas and
// histograms as bucket-wise delta counts — after an overlay converges
// almost nothing moves between beacons, so a steady-state frame is a
// few dozen bytes (the Local-Thresholding line of work in PAPERS.md
// motivates exactly this ship-the-delta discipline). Frames are
// sequence-numbered per exporter so the collector can account for every
// datagram the network loses; the exporter separately counts frames it
// dropped itself, so missing data is always attributable.
//
// The package deliberately lives outside internal/core, internal/des
// and internal/sim: the wall-clock flush loop and the UDP sockets here
// are forbidden in those packages by pwlint's nodeterminism analyzer.
// The deterministic simulation harness drives the same exporter and
// collector through synchronous in-process sinks and engine-scheduled
// flushes instead (see sim.Cluster.ExportTelemetry).
package telemetry

import (
	"encoding/binary"
	"fmt"
	"math"

	"peerwindow/internal/des"
	"peerwindow/internal/metrics"
	"peerwindow/internal/nodeid"
	"peerwindow/internal/trace"
	"peerwindow/internal/wire"
)

// frameMagic opens every telemetry datagram: "PWT" plus a format
// version byte. Unrecognized magic is counted and dropped by the
// collector, never parsed.
var frameMagic = [4]byte{'P', 'W', 'T', '1'}

// Section flag bits in the frame header.
const (
	flagBeacon  = 1 << 0
	flagMetrics = 1 << 1
	flagSpans   = 1 << 2
)

// Decode limits: a frame that claims more than these is garbage (or an
// attack) and is rejected before any allocation is sized by it.
const (
	maxNameLen      = 1024
	maxSectionItems = 1 << 20
)

// Beacon is the heartbeat half of a frame: the node's identity and the
// coarse state every dashboard row needs, present in every frame so a
// collector learns of a node from its first datagram.
type Beacon struct {
	Name   string
	ID     nodeid.ID
	Level  int
	Window int
}

// Frame is one decoded telemetry datagram.
type Frame struct {
	// Node is the exporting node's overlay address; with Seq it orders
	// and deduplicates the exporter's stream.
	Node wire.Addr
	Seq  uint64
	// At is the exporting node's virtual timestamp at flush time.
	At des.Time
	// FramesDropped and SpansDropped are the exporter's own cumulative
	// drop counters (frames its sink refused, spans evicted before a
	// flush could drain them); Regressions counts counter-monotonicity
	// violations the exporter observed while diffing. Carrying them in
	// every header lets the collector attribute every missing delta:
	// exporter drops are reported here, network drops appear as gaps in
	// Seq.
	FramesDropped uint64
	SpansDropped  uint64
	Regressions   uint64

	// Beacon is present in every exporter-built frame.
	Beacon *Beacon
	// Delta carries the instrument changes since the previous
	// successfully buffered flush: counters and histogram buckets as
	// deltas, gauges as current values.
	Delta metrics.Snapshot
	// Spans is the batch drained from the node's span buffer.
	Spans []trace.Span
}

// appendUvarint, appendString etc. build the wire form; all integers are
// unsigned varints except float64 bits and nodeid halves, which are
// fixed 8-byte big-endian (identifier bits are uniformly random, so a
// varint would inflate them). All of them are builder-return helpers:
// amortized zero-alloc when the caller threads one buffer through.

//pwlint:noalloc
func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

//pwlint:noalloc
func appendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

//pwlint:noalloc
func appendFixed64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

//pwlint:noalloc
func appendFloat(b []byte, v float64) []byte { return appendFixed64(b, math.Float64bits(v)) }

//pwlint:noalloc
func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

//pwlint:noalloc
func appendID(b []byte, id nodeid.ID) []byte {
	b = appendFixed64(b, id.Hi)
	return appendFixed64(b, id.Lo)
}

// Marshal encodes the frame. Map iteration order is hidden behind
// sorted-name encoding so equal frames marshal byte-identically (the
// induced-drop tests diff captured datagrams).
func (f *Frame) Marshal() []byte {
	var flags byte
	if f.Beacon != nil {
		flags |= flagBeacon
	}
	hasMetrics := len(f.Delta.Counters) > 0 || len(f.Delta.Gauges) > 0 || len(f.Delta.Histograms) > 0
	if hasMetrics {
		flags |= flagMetrics
	}
	if len(f.Spans) > 0 {
		flags |= flagSpans
	}
	b := make([]byte, 0, 256)
	b = append(b, frameMagic[:]...)
	b = append(b, flags)
	b = appendUvarint(b, uint64(f.Node))
	b = appendUvarint(b, f.Seq)
	b = appendUvarint(b, uint64(f.At))
	b = appendUvarint(b, f.FramesDropped)
	b = appendUvarint(b, f.SpansDropped)
	b = appendUvarint(b, f.Regressions)

	if f.Beacon != nil {
		b = appendString(b, f.Beacon.Name)
		b = appendID(b, f.Beacon.ID)
		b = appendUvarint(b, uint64(f.Beacon.Level))
		b = appendUvarint(b, uint64(f.Beacon.Window))
	}
	if hasMetrics {
		b = appendUvarint(b, uint64(len(f.Delta.Counters)))
		for _, name := range metrics.SortedNames(f.Delta.Counters) {
			b = appendString(b, name)
			b = appendUvarint(b, f.Delta.Counters[name])
		}
		b = appendUvarint(b, uint64(len(f.Delta.Gauges)))
		for _, name := range metrics.SortedNames(f.Delta.Gauges) {
			b = appendString(b, name)
			b = appendVarint(b, f.Delta.Gauges[name])
		}
		b = appendUvarint(b, uint64(len(f.Delta.Histograms)))
		for _, name := range metrics.SortedNames(f.Delta.Histograms) {
			h := f.Delta.Histograms[name]
			b = appendString(b, name)
			b = appendUvarint(b, uint64(len(h.Bounds)))
			for _, bound := range h.Bounds {
				b = appendFloat(b, bound)
			}
			for _, c := range h.Counts {
				b = appendUvarint(b, c)
			}
			b = appendUvarint(b, h.Count)
			b = appendFloat(b, h.Sum)
		}
	}
	if len(f.Spans) > 0 {
		b = appendUvarint(b, uint64(len(f.Spans)))
		for i := range f.Spans {
			b = appendSpan(b, &f.Spans[i])
		}
	}
	return b
}

// appendSpan appends one span record; hot on the export path, one call
// per buffered span per frame.
//
//pwlint:noalloc
func appendSpan(b []byte, s *trace.Span) []byte {
	b = appendUvarint(b, uint64(s.At))
	b = appendUvarint(b, s.Node)
	b = appendID(b, s.Trace.Origin)
	b = appendUvarint(b, s.Trace.Seq)
	b = append(b, byte(s.Kind))
	b = appendUvarint(b, s.Parent)
	b = appendUvarint(b, s.Child)
	b = appendUvarint(b, uint64(s.Step))
	b = append(b, byte(s.EventKind))
	b = appendID(b, s.Subject)
	b = appendUvarint(b, s.EventSeq)
	return b
}

// reader is a cursor over an encoded frame with error latching: decode
// helpers keep consuming after a failure and the final err check
// reports the first problem.
type reader struct {
	b   []byte
	pos int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("telemetry: "+format, args...)
	}
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		r.fail("truncated uvarint at offset %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.pos:])
	if n <= 0 {
		r.fail("truncated varint at offset %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) fixed64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.pos+8 > len(r.b) {
		r.fail("truncated fixed64 at offset %d", r.pos)
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.pos:])
	r.pos += 8
	return v
}

func (r *reader) float() float64 { return math.Float64frombits(r.fixed64()) }

func (r *reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.b) {
		r.fail("truncated byte at offset %d", r.pos)
		return 0
	}
	v := r.b[r.pos]
	r.pos++
	return v
}

func (r *reader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > maxNameLen || r.pos+int(n) > len(r.b) {
		r.fail("string length %d out of range at offset %d", n, r.pos)
		return ""
	}
	s := string(r.b[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s
}

// name reads an instrument name, which must pass metrics.ValidName: the
// collector merges decoded names into its /metrics exposition verbatim.
func (r *reader) name(what string) string {
	s := r.str()
	if r.err == nil && !metrics.ValidName(s) {
		r.fail("bad %s name %q", what, s)
	}
	return s
}

func (r *reader) id() nodeid.ID { return nodeid.ID{Hi: r.fixed64(), Lo: r.fixed64()} }

func (r *reader) count(what string) int {
	n := r.uvarint()
	if n > maxSectionItems {
		r.fail("%s count %d exceeds limit", what, n)
		return 0
	}
	return int(n)
}

// Unmarshal decodes one frame, validating magic, section counts and
// lengths; trailing bytes are an error (one frame per datagram).
func Unmarshal(b []byte) (*Frame, error) {
	if len(b) < len(frameMagic)+1 || [4]byte(b[:4]) != frameMagic {
		return nil, fmt.Errorf("telemetry: bad frame magic")
	}
	r := &reader{b: b, pos: len(frameMagic)}
	flags := r.byte()
	f := &Frame{
		Node:          wire.Addr(r.uvarint()),
		Seq:           r.uvarint(),
		At:            des.Time(r.uvarint()),
		FramesDropped: r.uvarint(),
		SpansDropped:  r.uvarint(),
		Regressions:   r.uvarint(),
	}
	if flags&flagBeacon != 0 {
		f.Beacon = &Beacon{
			Name:   r.str(),
			ID:     r.id(),
			Level:  int(r.uvarint()),
			Window: int(r.uvarint()),
		}
	}
	if flags&flagMetrics != 0 {
		f.Delta = metrics.Snapshot{
			Counters:   make(map[string]uint64),
			Gauges:     make(map[string]int64),
			Histograms: make(map[string]metrics.HistSnapshot),
		}
		for i, n := 0, r.count("counter"); i < n && r.err == nil; i++ {
			name := r.name("counter")
			f.Delta.Counters[name] = r.uvarint()
		}
		for i, n := 0, r.count("gauge"); i < n && r.err == nil; i++ {
			name := r.name("gauge")
			f.Delta.Gauges[name] = r.varint()
		}
		for i, n := 0, r.count("histogram"); i < n && r.err == nil; i++ {
			name := r.name("histogram")
			nb := r.count("histogram bound")
			h := metrics.HistSnapshot{Bounds: make([]float64, nb), Counts: make([]uint64, nb+1)}
			for j := 0; j < nb && r.err == nil; j++ {
				h.Bounds[j] = r.float()
			}
			for j := 0; j <= nb && r.err == nil; j++ {
				h.Counts[j] = r.uvarint()
			}
			h.Count = r.uvarint()
			h.Sum = r.float()
			f.Delta.Histograms[name] = h
		}
	}
	if flags&flagSpans != 0 {
		n := r.count("span")
		f.Spans = make([]trace.Span, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			var s trace.Span
			s.At = des.Time(r.uvarint())
			s.Node = r.uvarint()
			s.Trace = wire.TraceID{Origin: r.id(), Seq: r.uvarint()}
			s.Kind = trace.SpanKind(r.byte())
			s.Parent = r.uvarint()
			s.Child = r.uvarint()
			s.Step = int(r.uvarint())
			s.EventKind = wire.EventKind(r.byte())
			s.Subject = r.id()
			s.EventSeq = r.uvarint()
			f.Spans = append(f.Spans, s)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(b) {
		return nil, fmt.Errorf("telemetry: %d trailing bytes after frame", len(b)-r.pos)
	}
	return f, nil
}
