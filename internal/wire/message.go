package wire

import (
	"encoding/binary"
	"fmt"
)

// MsgType tags the payload carried by a Message.
type MsgType uint8

const (
	// MsgEvent carries a multicast step: an Event plus the tree-multicast
	// step counter (§4.2, figure 4). Requires an ack.
	MsgEvent MsgType = iota + 1
	// MsgAck acknowledges a MsgEvent (§4.2: "acknowledgement is required
	// for all the multicast messages").
	MsgAck
	// MsgHeartbeat is the §4.1 ring probe to the right neighbour.
	MsgHeartbeat
	// MsgHeartbeatAck answers a heartbeat.
	MsgHeartbeatAck
	// MsgReport delivers a state-changing event to a top node, which will
	// originate the multicast (§2, §4.4).
	MsgReport
	// MsgReportAck confirms a report and piggybacks t−1 top-node pointers
	// for lazy top-node-list maintenance (§4.5).
	MsgReportAck
	// MsgJoinQuery asks a bootstrap/top node for level estimation inputs:
	// the responder's level and measured bandwidth cost (§4.3).
	MsgJoinQuery
	// MsgJoinInfo answers a MsgJoinQuery.
	MsgJoinInfo
	// MsgPeerListReq asks a stronger node for the slice of its peer list
	// matching the requester's eigenstring (join step 3, warm-up, level
	// raising).
	MsgPeerListReq
	// MsgPeerListResp returns the requested pointers.
	MsgPeerListResp
	// MsgTopListReq asks for a top-node list (§4.5, including the
	// cross-part case of §4.4).
	MsgTopListReq
	// MsgTopListResp returns top-node pointers.
	MsgTopListResp
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	names := [...]string{
		MsgEvent: "event", MsgAck: "ack",
		MsgHeartbeat: "heartbeat", MsgHeartbeatAck: "heartbeat-ack",
		MsgReport: "report", MsgReportAck: "report-ack",
		MsgJoinQuery: "join-query", MsgJoinInfo: "join-info",
		MsgPeerListReq: "peerlist-req", MsgPeerListResp: "peerlist-resp",
		MsgTopListReq: "toplist-req", MsgTopListResp: "toplist-resp",
	}
	if int(t) < len(names) && names[t] != "" {
		return names[t]
	}
	return fmt.Sprintf("msg(%d)", uint8(t))
}

// Valid reports whether the type is defined.
func (t MsgType) Valid() bool { return t >= MsgEvent && t <= MsgTopListResp }

// Message is the transport envelope. Exactly the fields relevant to the
// tagged type are populated; the codec round-trips only those.
type Message struct {
	Type MsgType
	From Addr
	To   Addr

	// Event payload (MsgEvent, MsgReport) and the multicast step counter
	// s of figure 4 (MsgEvent only).
	Event Event
	Step  uint8

	// AckID correlates MsgAck / MsgReportAck / responses with the request
	// they answer.
	AckID uint64

	// Pointers carries peer-list or top-node-list payloads
	// (MsgReportAck, MsgPeerListResp, MsgTopListResp).
	Pointers []Pointer

	// Sender describes the sending node where the receiver needs it (for
	// MsgJoinInfo it is the responder's own pointer; for MsgPeerListReq
	// it identifies the requester's eigenstring via ID+Level).
	Sender Pointer

	// Cost is the responder's measured bandwidth cost in bit/s
	// (MsgJoinInfo, §4.3's W_T), rounded to an integer.
	Cost uint64

	// Part selects which split part's top nodes are requested
	// (MsgTopListReq in the §4.4 cross-part case): the first PartBits
	// bits of PartPrefix. PartBits == 0 asks for the local part.
	PartBits   uint8
	PartPrefix [16]byte

	// Trace carries the causal trace context (MsgEvent, MsgReport). The
	// zero value encodes to nothing — the codec appends a trailing trace
	// block only when Trace is set, so untraced traffic is byte-for-byte
	// the pre-tracing format (codec v2, see the package doc comment).
	Trace TraceID
}

// header layout: type(1) from(8) to(8).
const headerSize = 1 + 8 + 8

// Marshal encodes the message into a fresh, exactly sized buffer. The wire
// layout per type is documented by the decoder; unknown field combinations
// for a type are simply not encoded.
func (m Message) Marshal() []byte {
	return m.AppendTo(make([]byte, 0, m.encodedSize()))
}

// AppendTo appends the message's wire form to b, builder-style, and
// returns the extended slice. With m.SizeBits()/8 spare capacity in b it
// allocates nothing, which is how a sender reuses one buffer across
// messages.
//
//pwlint:noalloc
func (m Message) AppendTo(b []byte) []byte {
	if !m.Type.Valid() {
		panic(fmt.Sprintf("wire: marshalling invalid message type %d", m.Type)) //pwlint:allow noalloc panic path, an invalid type is a caller bug
	}
	b = append(b, uint8(m.Type))
	b = binary.BigEndian.AppendUint64(b, uint64(m.From))
	b = binary.BigEndian.AppendUint64(b, uint64(m.To))
	switch m.Type {
	case MsgEvent:
		b = append(b, m.Step)
		b = binary.BigEndian.AppendUint64(b, m.AckID)
		b = m.Event.marshal(b)
	case MsgReport:
		b = binary.BigEndian.AppendUint64(b, m.AckID)
		b = m.Event.marshal(b)
	case MsgAck, MsgHeartbeat, MsgHeartbeatAck, MsgJoinQuery:
		b = binary.BigEndian.AppendUint64(b, m.AckID)
	case MsgReportAck, MsgPeerListResp, MsgTopListResp:
		b = binary.BigEndian.AppendUint64(b, m.AckID)
		b = marshalPointers(b, m.Pointers)
	case MsgJoinInfo:
		b = binary.BigEndian.AppendUint64(b, m.AckID)
		b = binary.BigEndian.AppendUint64(b, m.Cost)
		b = m.Sender.marshal(b)
	case MsgPeerListReq:
		b = binary.BigEndian.AppendUint64(b, m.AckID)
		b = m.Sender.marshal(b)
	case MsgTopListReq:
		b = binary.BigEndian.AppendUint64(b, m.AckID)
		b = append(b, m.PartBits)
		b = append(b, m.PartPrefix[:]...)
	}
	// The trace context rides as an optional trailing block so untraced
	// messages (the zero TraceID) keep the exact historical layout.
	if !m.Trace.IsZero() {
		b = m.Trace.marshalTrace(b)
	}
	return b
}

// encodedSize returns the exact length of the message's wire form in
// bytes, by arithmetic: one case per AppendTo case, field for field. (A
// pointer receiver only to spare the callers a second 240-byte copy.)
//
//pwlint:noalloc
func (m *Message) encodedSize() int {
	n := headerSize + 8 // every type carries the AckID
	switch m.Type {
	case MsgEvent:
		n += 1 + m.Event.encodedSize()
	case MsgReport:
		n += m.Event.encodedSize()
	case MsgAck, MsgHeartbeat, MsgHeartbeatAck, MsgJoinQuery:
	case MsgReportAck, MsgPeerListResp, MsgTopListResp:
		n += 2
		for i := range m.Pointers {
			n += m.Pointers[i].encodedSize()
		}
	case MsgJoinInfo:
		n += 8 + m.Sender.encodedSize()
	case MsgPeerListReq:
		n += m.Sender.encodedSize()
	case MsgTopListReq:
		n += 1 + len(m.PartPrefix)
	default:
		panic("wire: sizing invalid message type")
	}
	if !m.Trace.IsZero() {
		n += traceBlockSize
	}
	return n
}

// SizeBits returns the encoded size in bits, computed from the field
// lengths without encoding anything; it equals len(Marshal())*8.
//
//pwlint:noalloc
func (m Message) SizeBits() int { return 8 * m.encodedSize() }

// marshalPointers appends a length-prefixed pointer list to b.
//
//pwlint:noalloc
func marshalPointers(b []byte, ps []Pointer) []byte {
	if len(ps) > 0xffff {
		panic(fmt.Sprintf("wire: %d pointers exceed message capacity", len(ps))) //pwlint:allow noalloc panic path, an oversized list is a caller bug
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(ps)))
	for _, p := range ps {
		b = p.marshal(b)
	}
	return b
}

func unmarshalPointers(b []byte) ([]Pointer, []byte, error) {
	if len(b) < 2 {
		return nil, nil, errShort
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	var ps []Pointer
	if n > 0 {
		ps = make([]Pointer, 0, n)
	}
	for i := 0; i < n; i++ {
		var p Pointer
		var err error
		p, b, err = unmarshalPointer(b)
		if err != nil {
			return nil, nil, err
		}
		ps = append(ps, p)
	}
	return ps, b, nil
}

// Unmarshal decodes a message produced by Marshal.
func Unmarshal(b []byte) (Message, error) {
	if len(b) < headerSize {
		return Message{}, errShort
	}
	var m Message
	m.Type = MsgType(b[0])
	if !m.Type.Valid() {
		return Message{}, fmt.Errorf("wire: invalid message type %d", b[0])
	}
	m.From = Addr(binary.BigEndian.Uint64(b[1:9]))
	m.To = Addr(binary.BigEndian.Uint64(b[9:17]))
	b = b[headerSize:]
	var err error
	takeU64 := func(dst *uint64) bool {
		if err != nil || len(b) < 8 {
			err = errShort
			return false
		}
		*dst = binary.BigEndian.Uint64(b)
		b = b[8:]
		return true
	}
	switch m.Type {
	case MsgEvent:
		if len(b) < 1 {
			return Message{}, errShort
		}
		m.Step = b[0]
		b = b[1:]
		takeU64(&m.AckID)
		if err == nil {
			m.Event, b, err = unmarshalEvent(b)
		}
	case MsgReport:
		takeU64(&m.AckID)
		if err == nil {
			m.Event, b, err = unmarshalEvent(b)
		}
	case MsgAck, MsgHeartbeat, MsgHeartbeatAck, MsgJoinQuery:
		takeU64(&m.AckID)
	case MsgReportAck, MsgPeerListResp, MsgTopListResp:
		takeU64(&m.AckID)
		if err == nil {
			m.Pointers, b, err = unmarshalPointers(b)
		}
	case MsgJoinInfo:
		takeU64(&m.AckID)
		takeU64(&m.Cost)
		if err == nil {
			m.Sender, b, err = unmarshalPointer(b)
		}
	case MsgPeerListReq:
		takeU64(&m.AckID)
		if err == nil {
			m.Sender, b, err = unmarshalPointer(b)
		}
	case MsgTopListReq:
		takeU64(&m.AckID)
		if err == nil {
			if len(b) < 17 {
				err = errShort
			} else {
				m.PartBits = b[0]
				copy(m.PartPrefix[:], b[1:17])
				b = b[17:]
			}
		}
	}
	if err != nil {
		return Message{}, err
	}
	if len(b) != 0 {
		// The only tail the codec accepts is exactly one trace block;
		// unmarshalTrace raises the historical trailing-bytes error for
		// anything else.
		m.Trace, err = unmarshalTrace(b)
		if err != nil {
			return Message{}, err
		}
	}
	return m, nil
}
