package wire

import (
	"testing"

	"peerwindow/internal/nodeid"
)

// The marshal builders carry //pwlint:noalloc contracts: appending into
// a caller-threaded buffer of sufficient capacity must not allocate.

func TestMarshalBuildersDoNotAllocate(t *testing.T) {
	p := Pointer{Addr: 7, ID: nodeid.ID{Hi: 1, Lo: 2}, Level: 3, Info: []byte("os=linux;role=db")}
	ev := Event{Kind: EventJoin, Subject: p, Seq: 42}
	buf := make([]byte, 0, 256)
	if allocs := testing.AllocsPerRun(1000, func() {
		buf = p.marshal(buf[:0])
		buf = ev.marshal(buf[:0])
	}); allocs != 0 {
		t.Fatalf("marshal into a warm buffer allocates %v per round", allocs)
	}
}

// TestMessageSizeAndAppendDoNotAllocate pins the per-message group: the
// arithmetic SizeBits every hop calls for its meters, and AppendTo into a
// warm buffer, which is how the UDP link encodes a datagram.
func TestMessageSizeAndAppendDoNotAllocate(t *testing.T) {
	p := Pointer{Addr: 7, ID: nodeid.ID{Hi: 1, Lo: 2}, Level: 3, Info: []byte("os=linux;role=db")}
	msgs := []Message{
		{Type: MsgEvent, From: 1, To: 2, Step: 3, AckID: 4, Event: Event{Kind: EventJoin, Subject: p, Seq: 42}, Trace: TraceID{Seq: 1}},
		{Type: MsgAck, From: 2, To: 1, AckID: 4},
		{Type: MsgHeartbeat, From: 1, To: 2, AckID: 5},
		{Type: MsgReportAck, From: 1, To: 2, AckID: 6, Pointers: []Pointer{p, p, p}},
	}
	bits := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		for i := range msgs {
			bits += msgs[i].SizeBits()
		}
	}); allocs != 0 {
		t.Fatalf("SizeBits allocates %v per round", allocs)
	}
	buf := make([]byte, 0, 512)
	if allocs := testing.AllocsPerRun(1000, func() {
		for i := range msgs {
			buf = msgs[i].AppendTo(buf[:0])
		}
	}); allocs != 0 {
		t.Fatalf("AppendTo into a warm buffer allocates %v per round", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		buf = msgs[0].Marshal()
	}); allocs != 1 {
		t.Fatalf("Marshal allocates %v times per message, want exactly 1", allocs)
	}
}

func TestPointerEqualDoesNotAllocate(t *testing.T) {
	p := Pointer{Addr: 7, ID: nodeid.ID{Hi: 1, Lo: 2}, Level: 3, Info: []byte("os=linux")}
	q := p
	if allocs := testing.AllocsPerRun(1000, func() {
		if !p.Equal(q) {
			t.Fatal("pointers differ")
		}
	}); allocs != 0 {
		t.Fatalf("Equal allocates %v per call", allocs)
	}
}
