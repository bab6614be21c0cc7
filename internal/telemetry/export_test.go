package telemetry

import (
	"errors"
	"testing"

	"peerwindow/internal/des"
	"peerwindow/internal/metrics"
	"peerwindow/internal/trace"
)

// captureSink decodes every accepted frame; refuse() makes the next n
// sends fail.
type captureSink struct {
	frames []*Frame
	refuse int
	raw    [][]byte
}

func (s *captureSink) Send(b []byte) error {
	if s.refuse > 0 {
		s.refuse--
		return errors.New("sink full")
	}
	f, err := Unmarshal(b)
	if err != nil {
		return err
	}
	s.frames = append(s.frames, f)
	s.raw = append(s.raw, append([]byte{}, b...))
	return nil
}

func snapOf(c map[string]uint64, g map[string]int64) metrics.Snapshot {
	return metrics.Snapshot{Counters: c, Gauges: g}
}

func TestExporterEmitsDeltas(t *testing.T) {
	sink := &captureSink{}
	e := NewExporter(ExporterConfig{Node: 1, Name: "n1"}, sink)

	e.Flush(1*des.Second, snapOf(map[string]uint64{"a": 5}, map[string]int64{"g": 2}), Beacon{Level: 1, Window: 4})
	e.Flush(2*des.Second, snapOf(map[string]uint64{"a": 9}, map[string]int64{"g": 3}), Beacon{Level: 2, Window: 8})

	if len(sink.frames) != 2 {
		t.Fatalf("got %d frames, want 2", len(sink.frames))
	}
	if d := sink.frames[0].Delta.Counters["a"]; d != 5 {
		t.Fatalf("first delta a=%d, want 5", d)
	}
	if d := sink.frames[1].Delta.Counters["a"]; d != 4 {
		t.Fatalf("second delta a=%d, want 4 (9-5)", d)
	}
	if g := sink.frames[1].Delta.Gauges["g"]; g != 3 {
		t.Fatalf("gauge not last-write: got %d", g)
	}
	if sink.frames[0].Seq != 0 || sink.frames[1].Seq != 1 {
		t.Fatalf("bad seqs %d,%d", sink.frames[0].Seq, sink.frames[1].Seq)
	}
	if bc := sink.frames[0].Beacon; bc == nil || bc.Name != "n1" || bc.Level != 1 {
		t.Fatalf("beacon not defaulted from config: %+v", bc)
	}
}

func TestExporterRefoldsRefusedDeltas(t *testing.T) {
	sink := &captureSink{}
	e := NewExporter(ExporterConfig{Node: 1}, sink)

	e.Flush(1*des.Second, snapOf(map[string]uint64{"a": 5}, nil), Beacon{})
	sink.refuse = 1
	e.Flush(2*des.Second, snapOf(map[string]uint64{"a": 8}, nil), Beacon{})
	e.Flush(3*des.Second, snapOf(map[string]uint64{"a": 10}, nil), Beacon{})

	st := e.Stats()
	if st.FramesDropped != 1 || st.FramesSent != 2 {
		t.Fatalf("stats %+v, want 1 dropped / 2 sent", st)
	}
	// The refused frame's delta (3) must ride the next frame (with 2).
	var total uint64
	for _, f := range sink.frames {
		total += f.Delta.Counters["a"]
	}
	if total != 10 {
		t.Fatalf("delivered deltas sum to %d, want 10 (no delta lost)", total)
	}
	last := sink.frames[len(sink.frames)-1]
	if last.Delta.Counters["a"] != 5 {
		t.Fatalf("refold delta %d, want 5 (3 pending + 2 new)", last.Delta.Counters["a"])
	}
	if last.FramesDropped != 1 {
		t.Fatalf("frame does not advertise the drop: %+v", last)
	}
}

func TestExporterDrainsAndBatchesSpans(t *testing.T) {
	const total = 2*maxSpansPerFrame + 1
	buf := trace.NewSpanBuffer(1024)
	for i := 0; i < total; i++ {
		buf.RecordSpan(trace.Span{At: des.Time(i), Node: 1, EventSeq: uint64(i)})
	}
	sink := &captureSink{}
	e := NewExporter(ExporterConfig{Node: 1, Spans: buf}, sink)
	e.Flush(1*des.Second, metrics.Snapshot{}, Beacon{})

	// Two full frames and one with the last span; only the first carries
	// a beacon.
	if len(sink.frames) != 3 {
		t.Fatalf("got %d frames, want 3", len(sink.frames))
	}
	var n int
	for i, f := range sink.frames {
		n += len(f.Spans)
		if i > 0 && f.Beacon != nil {
			t.Fatalf("follow-up frame %d carries a beacon", i)
		}
	}
	if n != total {
		t.Fatalf("delivered %d spans, want %d", n, total)
	}

	// Second flush drains nothing new.
	sink.frames = nil
	e.Flush(2*des.Second, metrics.Snapshot{}, Beacon{})
	if len(sink.frames) != 1 || len(sink.frames[0].Spans) != 0 {
		t.Fatalf("idle flush should send one empty frame, got %+v", sink.frames)
	}
}

func TestExporterCountsSpanEvictionsAsDrops(t *testing.T) {
	buf := trace.NewSpanBuffer(4)
	sink := &captureSink{}
	e := NewExporter(ExporterConfig{Node: 1, Spans: buf}, sink)
	e.Flush(0, metrics.Snapshot{}, Beacon{}) // cursor at 0

	for i := 0; i < 10; i++ { // 6 evicted before next drain
		buf.RecordSpan(trace.Span{EventSeq: uint64(i)})
	}
	e.Flush(1*des.Second, metrics.Snapshot{}, Beacon{})
	if st := e.Stats(); st.SpansDropped != 6 {
		t.Fatalf("SpansDropped=%d, want 6", st.SpansDropped)
	}
	last := sink.frames[len(sink.frames)-1]
	if last.SpansDropped != 6 {
		t.Fatalf("frame advertises %d span drops, want 6", last.SpansDropped)
	}
}

func TestExporterCountsRegressions(t *testing.T) {
	sink := &captureSink{}
	e := NewExporter(ExporterConfig{Node: 1}, sink)
	e.Flush(1*des.Second, snapOf(map[string]uint64{"a": 5}, nil), Beacon{})
	// Counter went backwards (restart): full value re-exported, counted.
	e.Flush(2*des.Second, snapOf(map[string]uint64{"a": 2}, nil), Beacon{})
	if st := e.Stats(); st.Regressions != 1 {
		t.Fatalf("Regressions=%d, want 1", st.Regressions)
	}
	if d := sink.frames[1].Delta.Counters["a"]; d != 2 {
		t.Fatalf("regressed counter delta %d, want full value 2", d)
	}
}

var _ Sink = SinkFunc(nil)
