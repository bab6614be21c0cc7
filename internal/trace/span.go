// Package trace records what the protocol did, as structured spans in one
// bounded, concurrency-safe buffer. A Span is one moment: a traced
// multicast's origination, arrival, delivery or duplicate verdict, forward,
// redirect or drop — or a protocol moment outside any tree (a probe round,
// a retry, a detection, a level shift, a refresh, an expiry). Multicast
// spans carry the wire.TraceID stamped at origination, so a collector can
// group them by trace and rebuild the actual multicast tree (see tree.go);
// moments of untraced events carry the zero ID. A fixed-capacity buffer
// (rather than a log file) keeps tracing always-on-capable: memory use is
// constant no matter how long the overlay runs.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"peerwindow/internal/des"
	"peerwindow/internal/nodeid"
	"peerwindow/internal/wire"
)

// SpanKind classifies one span.
type SpanKind uint8

const (
	// SpanOrigin marks the node that started the multicast tree (a top
	// node applying a reported event, or a degraded-path originator).
	SpanOrigin SpanKind = iota + 1
	// SpanReceive marks a MsgEvent arriving, before the dedup verdict.
	SpanReceive
	// SpanDeliver marks a fresh event accepted and applied.
	SpanDeliver
	// SpanDuplicate marks an arrival rejected by dedup.
	SpanDuplicate
	// SpanForward marks a tree forward to a child (Child, at Step).
	SpanForward
	// SpanRedirect marks a forward abandoned after the retry budget; the
	// stale target is in Child and a substitute is being chosen.
	SpanRedirect
	// SpanDrop marks a message lost for good: the reliable layer exhausted
	// its attempts (any message type), or the network dropped it (loss
	// injection). The addressee is in Child, the message's step in Step.
	SpanDrop

	// The kinds below are protocol moments outside the tree: BuildTrees
	// ignores them. Child is the peer the moment concerns, if any.

	// SpanProbeRound marks a §4.1 heartbeat round toward Child.
	SpanProbeRound
	// SpanProbeRetry marks a repeated heartbeat; Step is the attempt.
	SpanProbeRetry
	// SpanProbeDetect marks a ring neighbour declared failed after the
	// whole attempt budget; the latency is At minus the round's At.
	SpanProbeDetect
	// SpanVerifyDetect marks a suspect confirmed dead by its §4.2
	// verification round.
	SpanVerifyDetect
	// SpanFalseAlarm marks a suspect that answered its verification round.
	SpanFalseAlarm
	// SpanShiftUp marks a level raise; Step is the new level.
	SpanShiftUp
	// SpanShiftDown marks a level drop; Step is how many pointers it shed.
	SpanShiftDown
	// SpanAckRetry marks a reliable send repeated after an ack timeout;
	// Child, Step and the event are the message's.
	SpanAckRetry
	// SpanRefresh marks a §4.6 self-refresh announcement.
	SpanRefresh
	// SpanExpire marks a pointer (Child) expired by the §4.6 sweep.
	SpanExpire
	// SpanReportEscalate marks a §4.5 report that reached no top node and
	// took the degraded path.
	SpanReportEscalate
	// SpanSplitCapture marks a top node remembering the sibling part's
	// top nodes as a split deepens (§4.4); Step is how many.
	SpanSplitCapture
)

var spanKindNames = [...]string{
	SpanOrigin: "origin", SpanReceive: "receive", SpanDeliver: "deliver",
	SpanDuplicate: "duplicate", SpanForward: "forward",
	SpanRedirect: "redirect", SpanDrop: "drop",
	SpanProbeRound: "probe-round", SpanProbeRetry: "probe-retry",
	SpanProbeDetect: "probe-detect", SpanVerifyDetect: "verify-detect",
	SpanFalseAlarm: "false-alarm", SpanShiftUp: "shift-up",
	SpanShiftDown: "shift-down", SpanAckRetry: "ack-retry",
	SpanRefresh: "refresh", SpanExpire: "expire",
	SpanReportEscalate: "report-escalate", SpanSplitCapture: "split-capture",
}

// String implements fmt.Stringer.
func (k SpanKind) String() string {
	if int(k) < len(spanKindNames) && spanKindNames[k] != "" {
		return spanKindNames[k]
	}
	return fmt.Sprintf("span(%d)", uint8(k))
}

// ParseSpanKind inverts String.
func ParseSpanKind(s string) (SpanKind, error) {
	for k, name := range spanKindNames {
		if name == s {
			return SpanKind(k), nil
		}
	}
	return 0, fmt.Errorf("trace: unknown span kind %q", s)
}

// Span is one recorded protocol moment.
type Span struct {
	// At is the virtual time of the moment.
	At des.Time
	// Node is the recording node's address.
	Node uint64
	// Trace groups the span with its multicast tree; zero for moments of
	// untraced events and moments with no event.
	Trace wire.TraceID
	// Kind says what happened.
	Kind SpanKind
	// Parent is the sending node's address for receive/deliver/duplicate
	// spans (the tree edge walked to get here); zero otherwise.
	Parent uint64
	// Child is the target address for forward/redirect/drop spans and the
	// peer a moment concerns; zero otherwise.
	Child uint64
	// Step is the §4.2 multicast step counter — the received step for
	// receive-side spans, the stamped step for forwards — or a moment's
	// count (attempt, new level, pointers shed; see the kinds).
	Step int
	// Event identity: kind, subject and per-subject sequence; zero for
	// moments with no event.
	EventKind wire.EventKind
	Subject   nodeid.ID
	EventSeq  uint64
}

// SpanSink receives spans as they happen. Implementations must be safe
// for the caller's execution model (the sim engine is single-threaded;
// a live host calls with its lock held, from whichever goroutine drives
// its node, and hosts may share a sink, so shared sinks must lock —
// SpanBuffer does).
type SpanSink interface {
	RecordSpan(Span)
}

// DropSpan is the drop span of msg lost in transit at time at: Node is the
// sender, Child the addressee. Links record it for injected loss.
func DropSpan(at des.Time, msg *wire.Message) Span {
	return Span{
		At: at, Node: uint64(msg.From), Trace: msg.Trace, Kind: SpanDrop,
		Child: uint64(msg.To), Step: int(msg.Step),
		EventKind: msg.Event.Kind, Subject: msg.Event.Subject.ID, EventSeq: msg.Event.Seq,
	}
}

// SpanBuffer is a bounded span ring: the per-node (or per-cluster)
// retention behind /debug/spans, telemetry export and the sim collector.
// All methods are safe for concurrent use.
type SpanBuffer struct {
	mu    sync.Mutex
	buf   []Span
	next  int
	count int
	total uint64
}

// NewSpanBuffer builds a buffer retaining up to capacity spans.
func NewSpanBuffer(capacity int) *SpanBuffer {
	if capacity <= 0 {
		panic("trace: span buffer capacity must be positive")
	}
	return &SpanBuffer{buf: make([]Span, capacity)}
}

// RecordSpan implements SpanSink, evicting the oldest span when full.
func (b *SpanBuffer) RecordSpan(s Span) {
	b.mu.Lock()
	b.buf[b.next] = s
	b.next = (b.next + 1) % len(b.buf)
	if b.count < len(b.buf) {
		b.count++
	}
	b.total++
	b.mu.Unlock()
}

// Total returns how many spans were ever recorded (including evicted
// ones).
func (b *SpanBuffer) Total() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.total
}

// SnapshotSince is the batch-draining primitive behind periodic span
// export: it returns the spans recorded after the first cursor spans
// ever seen by the buffer, oldest-first, along with the new cursor (the
// buffer's total at read time) and how many spans were evicted before
// this read could retain them (missed). Passing the returned cursor to
// the next call yields each span exactly once without mutating the
// buffer, so a polling exporter can share it with /debug/spans readers.
// A cursor ahead of the total (a restarted buffer) resynchronizes to
// the present and reports nothing missed.
func (b *SpanBuffer) SnapshotSince(cursor uint64) (spans []Span, next uint64, missed uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	next = b.total
	if cursor > next {
		cursor = next
	}
	firstRetained := b.total - uint64(b.count)
	if cursor < firstRetained {
		missed = firstRetained - cursor
		cursor = firstRetained
	}
	n := int(next - cursor)
	if n == 0 {
		return nil, next, missed
	}
	spans = make([]Span, 0, n)
	start := b.next - n
	if start < 0 {
		start += len(b.buf)
	}
	for i := 0; i < n; i++ {
		spans = append(spans, b.buf[(start+i)%len(b.buf)])
	}
	return spans, next, missed
}

// Snapshot returns the retained spans oldest-first.
func (b *SpanBuffer) Snapshot() []Span {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Span, 0, b.count)
	start := b.next - b.count
	if start < 0 {
		start += len(b.buf)
	}
	for i := 0; i < b.count; i++ {
		out = append(out, b.buf[(start+i)%len(b.buf)])
	}
	return out
}

// WriteJSONL dumps the retained spans as JSON lines.
func (b *SpanBuffer) WriteJSONL(w io.Writer) error {
	return WriteSpans(w, b.Snapshot())
}

// spanJSON is the JSONL schema (docs/OBSERVABILITY.md documents it).
type spanJSON struct {
	At      int64  `json:"at"`
	Node    uint64 `json:"node"`
	Trace   string `json:"trace"`
	Kind    string `json:"kind"`
	Parent  uint64 `json:"parent,omitempty"`
	Child   uint64 `json:"child,omitempty"`
	Step    int    `json:"step"`
	Event   string `json:"event"`
	Subject string `json:"subject"`
	Seq     uint64 `json:"seq"`
}

// eventKindFromString inverts wire.EventKind.String for the JSONL
// decoder, including the zero kind of a span without an event.
func eventKindFromString(s string) (wire.EventKind, error) {
	for k := wire.EventKind(0); k <= wire.EventRefresh; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("trace: unknown event kind %q", s)
}

// WriteSpans encodes spans as JSON lines, one span per line.
func WriteSpans(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(spanJSON{
			At:      int64(s.At),
			Node:    s.Node,
			Trace:   s.Trace.String(),
			Kind:    s.Kind.String(),
			Parent:  s.Parent,
			Child:   s.Child,
			Step:    s.Step,
			Event:   s.EventKind.String(),
			Subject: s.Subject.String(),
			Seq:     s.EventSeq,
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSpans decodes a JSONL span stream produced by WriteSpans (or the
// /debug/spans endpoint). Blank lines are skipped; a malformed line is an
// error carrying its line number.
func ReadSpans(r io.Reader) ([]Span, error) {
	var out []Span
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var j spanJSON
		if err := json.Unmarshal(raw, &j); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		tid, err := wire.ParseTraceID(j.Trace)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		kind, err := ParseSpanKind(j.Kind)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		ek, err := eventKindFromString(j.Event)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		subject, err := nodeid.Parse(j.Subject)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		out = append(out, Span{
			At:        des.Time(j.At),
			Node:      j.Node,
			Trace:     tid,
			Kind:      kind,
			Parent:    j.Parent,
			Child:     j.Child,
			Step:      j.Step,
			EventKind: ek,
			Subject:   subject,
			EventSeq:  j.Seq,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
