package wire

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"peerwindow/internal/nodeid"
)

func samplePointer() Pointer {
	return Pointer{
		Addr:  42,
		ID:    nodeid.HashString("sample"),
		Level: 3,
		Info:  []byte("os=linux"),
	}
}

func TestPointerEigenstring(t *testing.T) {
	p := samplePointer()
	es := p.Eigenstring()
	if es.Level() != 3 {
		t.Fatalf("eigenstring level = %d want 3", es.Level())
	}
	if !es.Contains(p.ID) {
		t.Fatal("pointer eigenstring must contain its own ID")
	}
}

func TestPointerEqual(t *testing.T) {
	p := samplePointer()
	q := p
	q.Info = append([]byte(nil), p.Info...)
	if !p.Equal(q) {
		t.Fatal("identical pointers not equal")
	}
	q.Info[0] ^= 1
	if p.Equal(q) {
		t.Fatal("pointers with different info reported equal")
	}
	q = p
	q.Level++
	if p.Equal(q) {
		t.Fatal("pointers with different level reported equal")
	}
	q = p
	q.Addr++
	if p.Equal(q) {
		t.Fatal("pointers with different addr reported equal")
	}
}

func TestPointerSizeBits(t *testing.T) {
	p := Pointer{Info: nil}
	// 8 addr + 16 id + 1 level + 1 len = 26 bytes = 208 bits.
	if got := p.SizeBits(); got != 208 {
		t.Fatalf("bare pointer = %d bits want 208", got)
	}
	p.Info = make([]byte, 10)
	if got := p.SizeBits(); got != 288 {
		t.Fatalf("pointer with 10-byte info = %d bits want 288", got)
	}
}

func TestEventSizeNearPaperAssumption(t *testing.T) {
	// §5.1 assumes 1000-bit event messages; a MsgEvent with modest
	// attached info should be the same order of magnitude.
	m := Message{
		Type:  MsgEvent,
		From:  1,
		To:    2,
		Step:  4,
		AckID: 77,
		Event: Event{Kind: EventJoin, Subject: samplePointer(), Seq: 9},
	}
	bits := m.SizeBits()
	if bits < 300 || bits > 1500 {
		t.Fatalf("event message = %d bits, want within ~[300,1500]", bits)
	}
}

func TestEventKindStringAndValid(t *testing.T) {
	kinds := map[EventKind]string{
		EventJoin: "join", EventLeave: "leave",
		EventLevelShift: "level-shift", EventInfoChange: "info-change",
		EventRefresh: "refresh",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q want %q", k, k, want)
		}
		if !k.Valid() {
			t.Errorf("%v should be valid", k)
		}
	}
	if EventKind(0).Valid() || EventKind(99).Valid() {
		t.Error("invalid kinds reported valid")
	}
}

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	b := m.Marshal()
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("Unmarshal(%v): %v", m.Type, err)
	}
	return got
}

func TestRoundTripEvent(t *testing.T) {
	m := Message{
		Type: MsgEvent, From: 7, To: 9, Step: 3, AckID: 1234,
		Event: Event{Kind: EventLeave, Subject: samplePointer(), Seq: 55},
	}
	got := roundTrip(t, m)
	if got.Type != m.Type || got.From != m.From || got.To != m.To ||
		got.Step != m.Step || got.AckID != m.AckID ||
		got.Event.Kind != m.Event.Kind || got.Event.Seq != m.Event.Seq ||
		!got.Event.Subject.Equal(m.Event.Subject) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
}

func TestRoundTripReport(t *testing.T) {
	m := Message{
		Type: MsgReport, From: 1, To: 2, AckID: 8,
		Event: Event{Kind: EventRefresh, Subject: samplePointer(), Seq: 3},
	}
	got := roundTrip(t, m)
	if got.Event.Kind != EventRefresh || !got.Event.Subject.Equal(m.Event.Subject) {
		t.Fatalf("report round trip mismatch: %+v", got)
	}
}

func TestRoundTripSimpleAcks(t *testing.T) {
	for _, typ := range []MsgType{MsgAck, MsgHeartbeat, MsgHeartbeatAck, MsgJoinQuery} {
		m := Message{Type: typ, From: 3, To: 4, AckID: 99}
		got := roundTrip(t, m)
		if got.Type != typ || got.AckID != 99 || got.From != 3 || got.To != 4 {
			t.Fatalf("%v round trip mismatch: %+v", typ, got)
		}
	}
}

func TestRoundTripPointerLists(t *testing.T) {
	ps := []Pointer{
		samplePointer(),
		{Addr: 5, ID: nodeid.HashString("x"), Level: 0},
		{Addr: 6, ID: nodeid.HashString("y"), Level: 7, Info: []byte{1, 2, 3}},
	}
	for _, typ := range []MsgType{MsgReportAck, MsgPeerListResp, MsgTopListResp} {
		m := Message{Type: typ, From: 1, To: 2, AckID: 5, Pointers: ps}
		got := roundTrip(t, m)
		if len(got.Pointers) != len(ps) {
			t.Fatalf("%v: %d pointers want %d", typ, len(got.Pointers), len(ps))
		}
		for i := range ps {
			if !got.Pointers[i].Equal(ps[i]) {
				t.Fatalf("%v: pointer %d mismatch", typ, i)
			}
		}
	}
}

func TestRoundTripEmptyPointerList(t *testing.T) {
	m := Message{Type: MsgTopListResp, From: 1, To: 2, AckID: 1}
	got := roundTrip(t, m)
	if len(got.Pointers) != 0 {
		t.Fatalf("want empty pointer list, got %d", len(got.Pointers))
	}
}

func TestRoundTripJoinInfo(t *testing.T) {
	m := Message{
		Type: MsgJoinInfo, From: 1, To: 2, AckID: 4,
		Cost: 4800, Sender: samplePointer(),
	}
	got := roundTrip(t, m)
	if got.Cost != 4800 || !got.Sender.Equal(m.Sender) {
		t.Fatalf("join info mismatch: %+v", got)
	}
}

func TestRoundTripPeerListReq(t *testing.T) {
	m := Message{Type: MsgPeerListReq, From: 1, To: 2, AckID: 6, Sender: samplePointer()}
	got := roundTrip(t, m)
	if !got.Sender.Equal(m.Sender) {
		t.Fatalf("peer list request mismatch: %+v", got)
	}
}

func TestRoundTripTopListReq(t *testing.T) {
	m := Message{Type: MsgTopListReq, From: 1, To: 2, AckID: 7, PartBits: 1}
	id := nodeid.HashString("part")
	idb := id.Bytes()
	copy(m.PartPrefix[:], idb[:])
	got := roundTrip(t, m)
	if got.PartBits != 1 || !bytes.Equal(got.PartPrefix[:], m.PartPrefix[:]) {
		t.Fatalf("top list request mismatch: %+v", got)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0},                       // invalid type, short
		{99, 0, 0, 0, 0, 0, 0, 0}, // invalid type
	}
	for i, b := range cases {
		if _, err := Unmarshal(b); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestUnmarshalRejectsTruncation(t *testing.T) {
	m := Message{
		Type: MsgEvent, From: 7, To: 9, Step: 3, AckID: 12,
		Event: Event{Kind: EventLeave, Subject: samplePointer(), Seq: 55},
	}
	full := m.Marshal()
	for cut := 1; cut < len(full); cut++ {
		if _, err := Unmarshal(full[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d not detected", cut, len(full))
		}
	}
}

func TestUnmarshalRejectsTrailingBytes(t *testing.T) {
	m := Message{Type: MsgAck, From: 1, To: 2, AckID: 3}
	b := append(m.Marshal(), 0xff)
	if _, err := Unmarshal(b); err == nil {
		t.Fatal("trailing bytes not detected")
	}
}

func TestUnmarshalRejectsBadEventKind(t *testing.T) {
	m := Message{
		Type: MsgReport, From: 1, To: 2, AckID: 3,
		Event: Event{Kind: EventJoin, Subject: samplePointer(), Seq: 1},
	}
	b := m.Marshal()
	// The event kind byte sits right after header+ackid.
	b[headerSize+8] = 0xee
	if _, err := Unmarshal(b); err == nil {
		t.Fatal("invalid event kind not detected")
	}
}

// TestUnmarshalRejectsLevelsBeyondBits: a level or prefix length is at
// most nodeid.Bits, in every field that carries one; 128 decodes and 129
// is rejected.
func TestUnmarshalRejectsLevelsBeyondBits(t *testing.T) {
	at := func(level uint8) Pointer {
		p := samplePointer()
		p.Level = level
		return p
	}
	for _, level := range []uint8{nodeid.Bits, nodeid.Bits + 1} {
		for _, m := range []Message{
			{Type: MsgEvent, AckID: 1, Event: Event{Kind: EventJoin, Subject: at(level), Seq: 1}},
			{Type: MsgJoinInfo, AckID: 2, Sender: at(level)},
			{Type: MsgPeerListReq, AckID: 3, Sender: at(level)},
			{Type: MsgTopListResp, AckID: 4, Pointers: []Pointer{samplePointer(), at(level)}},
			{Type: MsgTopListReq, AckID: 5, PartBits: level},
		} {
			_, err := Unmarshal(m.Marshal())
			if (err == nil) != (level <= nodeid.Bits) {
				t.Errorf("%v at %d: Unmarshal error %v", m.Type, level, err)
			}
		}
	}
}

func TestMarshalPanicsOnOversizedInfo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized info did not panic")
		}
	}()
	p := Pointer{Info: make([]byte, MaxInfoLen+1)}
	m := Message{Type: MsgPeerListReq, Sender: p, From: 1, To: 2}
	m.Marshal()
}

func TestMsgTypeString(t *testing.T) {
	if MsgEvent.String() != "event" || MsgTopListResp.String() != "toplist-resp" {
		t.Fatal("MsgType names wrong")
	}
	if MsgType(200).String() != "msg(200)" {
		t.Fatalf("unknown type renders as %q", MsgType(200))
	}
}

func BenchmarkMarshalEvent(b *testing.B) {
	m := Message{
		Type: MsgEvent, From: 7, To: 9, Step: 3, AckID: 12,
		Event: Event{Kind: EventJoin, Subject: samplePointer(), Seq: 1},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.Marshal()
	}
}

func BenchmarkUnmarshalEvent(b *testing.B) {
	m := Message{
		Type: MsgEvent, From: 7, To: 9, Step: 3, AckID: 12,
		Event: Event{Kind: EventJoin, Subject: samplePointer(), Seq: 1},
	}
	buf := m.Marshal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func TestUnmarshalNeverPanicsOnRandomBytes(t *testing.T) {
	// Robustness: arbitrary input must produce an error or a valid
	// message, never a panic or a hang.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 20000; i++ {
		n := rng.Intn(120)
		buf := make([]byte, n)
		for j := range buf {
			buf[j] = byte(rng.Intn(256))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Unmarshal panicked on %x: %v", buf, r)
				}
			}()
			m, err := Unmarshal(buf)
			if err == nil {
				// A parsed message must re-marshal without panicking.
				_ = m.Marshal()
			}
		}()
	}
}

func TestMarshalUnmarshalQuickProperty(t *testing.T) {
	// Property: any structurally valid message round-trips.
	f := func(from, to uint64, step uint8, ackID uint64, kindRaw uint8, seq uint64, infoLen uint8) bool {
		kind := EventKind(kindRaw%5) + EventJoin
		m := Message{
			Type: MsgEvent, From: Addr(from), To: Addr(to),
			Step: step, AckID: ackID,
			Event: Event{
				Kind: kind, Seq: seq,
				Subject: Pointer{
					Addr: Addr(to ^ from), ID: nodeid.HashString("subj"),
					Level: step % 32, Info: make([]byte, int(infoLen)%64),
				},
			},
		}
		got, err := Unmarshal(m.Marshal())
		if err != nil {
			return false
		}
		return got.Event.Kind == kind && got.Event.Seq == seq &&
			got.Step == step && got.AckID == ackID &&
			got.Event.Subject.Equal(m.Event.Subject)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSizeBitsMatchesMarshal pins the arithmetic size to the encoder for
// every message type, with and without the trace block, over every
// payload shape a type can carry.
func TestSizeBitsMatchesMarshal(t *testing.T) {
	bare := Pointer{Addr: 1, ID: nodeid.HashString("bare")}
	info := samplePointer()
	full := Pointer{Addr: 2, ID: nodeid.HashString("full"), Level: 9, Info: make([]byte, MaxInfoLen)}
	many := make([]Pointer, 300)
	for i := range many {
		many[i] = Pointer{Addr: Addr(i + 1), ID: nodeid.HashString("p"), Info: make([]byte, i%7)}
	}
	var shapes []Message
	for typ := MsgEvent; typ <= MsgTopListResp; typ++ {
		for _, subj := range []Pointer{bare, info, full} {
			for _, ps := range [][]Pointer{nil, {info}, many} {
				shapes = append(shapes, Message{
					Type: typ, From: 3, To: 4, Step: 5, AckID: 6, Cost: 7,
					Event:    Event{Kind: EventInfoChange, Subject: subj, Seq: 8},
					Pointers: ps, Sender: subj,
					PartBits: 3, PartPrefix: [16]byte{0xa0},
				})
			}
		}
	}
	seen := map[MsgType]bool{}
	for _, m := range shapes {
		for _, tid := range []TraceID{{}, sampleTrace()} {
			m.Trace = tid
			b := m.Marshal()
			if got := m.SizeBits(); got != 8*len(b) {
				t.Errorf("%v trace=%v: SizeBits = %d, Marshal gives %d bits", m.Type, !tid.IsZero(), got, 8*len(b))
			}
			if cap(b) != len(b) {
				t.Errorf("%v: Marshal buffer has cap %d for %d bytes, want exact", m.Type, cap(b), len(b))
			}
			if again := m.AppendTo(b[:0]); !bytes.Equal(again, b) || &again[0] != &b[0] {
				t.Errorf("%v: AppendTo into an exactly sized buffer moved or changed the bytes", m.Type)
			}
		}
		seen[m.Type] = true
	}
	if len(seen) != int(MsgTopListResp) {
		t.Fatalf("covered %d message types, want %d", len(seen), MsgTopListResp)
	}
}

func TestAddrIPv4RoundTrip(t *testing.T) {
	ip := [4]byte{192, 168, 1, 7}
	a := AddrFromIPv4(ip, 4242)
	gotIP, gotPort := a.IPv4()
	if gotIP != ip || gotPort != 4242 {
		t.Fatalf("round trip: %v:%d", gotIP, gotPort)
	}
	if a == NilAddr {
		t.Fatal("packed addr collided with NilAddr")
	}
	// Distinct endpoints must map to distinct addrs.
	if AddrFromIPv4(ip, 4243) == a {
		t.Fatal("port not encoded")
	}
}
