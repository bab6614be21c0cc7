package wire

import (
	"bytes"
	"testing"

	"peerwindow/internal/nodeid"
)

func sampleTrace() TraceID {
	return TraceID{Origin: nodeid.HashString("origin"), Seq: 42}
}

func TestTraceIDStringParse(t *testing.T) {
	tid := sampleTrace()
	got, err := ParseTraceID(tid.String())
	if err != nil {
		t.Fatal(err)
	}
	if got != tid {
		t.Fatalf("parse(%q) = %+v want %+v", tid.String(), got, tid)
	}
	for _, bad := range []string{"", "nohash", "zz#1", tid.Origin.String() + "#x"} {
		if _, err := ParseTraceID(bad); err == nil {
			t.Errorf("ParseTraceID(%q) should fail", bad)
		}
	}
}

func TestTraceIDIsZero(t *testing.T) {
	if !(TraceID{}).IsZero() {
		t.Fatal("zero value not zero")
	}
	if sampleTrace().IsZero() {
		t.Fatal("stamped id reported zero")
	}
	if (TraceID{Seq: 1}).IsZero() {
		t.Fatal("nonzero seq reported zero")
	}
}

func TestRoundTripTracedMessages(t *testing.T) {
	tid := sampleTrace()
	for _, m := range []Message{
		{
			Type: MsgEvent, From: 7, To: 9, Step: 3, AckID: 12, Trace: tid,
			Event: Event{Kind: EventLeave, Subject: samplePointer(), Seq: 55},
		},
		{
			Type: MsgReport, From: 1, To: 2, AckID: 8, Trace: tid,
			Event: Event{Kind: EventInfoChange, Subject: samplePointer(), Seq: 3},
		},
		{Type: MsgAck, From: 3, To: 4, AckID: 99, Trace: tid},
	} {
		got := roundTrip(t, m)
		if got.Trace != tid {
			t.Fatalf("%v: trace = %+v want %+v", m.Type, got.Trace, tid)
		}
	}
}

func TestZeroTraceEncodesAsV1(t *testing.T) {
	// The untraced encoding must be byte-identical to codec v1: no
	// trailing block at all, so tracing cannot perturb bandwidth
	// measurements when disabled.
	m := Message{
		Type: MsgEvent, From: 7, To: 9, Step: 3, AckID: 12,
		Event: Event{Kind: EventJoin, Subject: samplePointer(), Seq: 1},
	}
	plain := m.Marshal()
	m.Trace = sampleTrace()
	traced := m.Marshal()
	if len(traced) != len(plain)+traceBlockSize {
		t.Fatalf("traced = %d bytes, plain = %d, want +%d", len(traced), len(plain), traceBlockSize)
	}
	if !bytes.Equal(traced[:len(plain)], plain) {
		t.Fatal("traced encoding does not extend the v1 bytes")
	}
	got, err := Unmarshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Trace.IsZero() {
		t.Fatalf("v1 frame decoded with trace %+v", got.Trace)
	}
}

func TestTraceBlockTruncationRejected(t *testing.T) {
	m := Message{
		Type: MsgEvent, From: 7, To: 9, Step: 3, AckID: 12, Trace: sampleTrace(),
		Event: Event{Kind: EventLeave, Subject: samplePointer(), Seq: 55},
	}
	full := m.Marshal()
	// Every partial trace block is trailing garbage, exactly as in v1.
	for cut := 1; cut < traceBlockSize; cut++ {
		if _, err := Unmarshal(full[:len(full)-cut]); err == nil {
			t.Fatalf("partial trace block (-%d bytes) not rejected", cut)
		}
	}
	// A corrupted marker is garbage too.
	bad := append([]byte(nil), full...)
	bad[len(bad)-traceBlockSize] = 0xff
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("corrupt trace marker not rejected")
	}
}

func FuzzMessageRoundTrip(f *testing.F) {
	seedMsgs := []Message{
		{Type: MsgAck, From: 1, To: 2, AckID: 3},
		{Type: MsgEvent, From: 7, To: 9, Step: 3, AckID: 12,
			Event: Event{Kind: EventJoin, Subject: samplePointer(), Seq: 1}},
		{Type: MsgEvent, From: 7, To: 9, Step: 3, AckID: 12, Trace: sampleTrace(),
			Event: Event{Kind: EventLeave, Subject: samplePointer(), Seq: 2}},
		{Type: MsgReport, From: 1, To: 2, AckID: 8, Trace: TraceID{Seq: 9},
			Event: Event{Kind: EventRefresh, Subject: samplePointer(), Seq: 3}},
		{Type: MsgPeerListResp, From: 1, To: 2, AckID: 5, Trace: sampleTrace(),
			Pointers: []Pointer{samplePointer()}},
	}
	for _, m := range seedMsgs {
		f.Add(m.Marshal())
	}
	f.Add([]byte{byte(MsgEvent)})
	f.Add(append(seedMsgs[1].Marshal(), traceMarker))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return
		}
		// Whatever parses must re-encode to the exact input bytes: the
		// codec has one canonical form per message, traced or not.
		out := m.Marshal()
		if !bytes.Equal(out, data) {
			t.Fatalf("re-marshal mismatch:\n in  %x\n out %x", data, out)
		}
		if got := m.SizeBits(); got != 8*len(out) {
			t.Fatalf("SizeBits = %d, marshalled %d bits: %+v", got, 8*len(out), m)
		}
		back, err := Unmarshal(out)
		if err != nil {
			t.Fatalf("re-unmarshal: %v", err)
		}
		if back.Trace != m.Trace {
			t.Fatalf("trace changed across round trip: %+v vs %+v", back.Trace, m.Trace)
		}
	})
}
