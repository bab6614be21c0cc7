// Package wire defines the PeerWindow message vocabulary and its binary
// encoding.
//
// The unit of information is the Pointer (§2): "a pointer consists of the
// corresponding node's IP address, nodeId, level, and a piece of attached
// info that can be specified by upper applications". State-changing events
// — joining, leaving, level shifts, attached-info changes, and §4.6
// refreshes — carry the changing node's pointer and are multicast around
// its audience set.
//
// The codec is a plain length-prefixed big-endian layout; it exists so the
// live transport exchanges real bytes and so the simulator's bandwidth
// accounting can use true on-the-wire sizes rather than guesses. The
// paper's experiments assume an event message of 1000 bits; EventMsg sizes
// land in the same range for small attached info.
//
// Codec versions: v1 is the original layout — type(1) from(8) to(8)
// header plus a per-type payload, with any trailing bytes rejected. v2
// (current) is v1 plus an optional trailing trace block (marker byte,
// 16-byte origin nodeId, 8-byte sequence) carrying the causal TraceID.
// Marshal skip-encodes a zero TraceID, so v2 writers emit byte-identical
// v1 frames for untraced messages, and Unmarshal accepts both an empty
// tail (v1) and exactly one trace block (v2); every other tail is still
// an error. Old fixtures therefore round-trip unchanged.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"peerwindow/internal/nodeid"
)

// Addr is an opaque endpoint address, standing in for the IP address of a
// node. The live transport assigns them densely; a real deployment would
// use IP:port.
type Addr uint64

// NilAddr is the absent address.
const NilAddr Addr = 0

// MaxInfoLen bounds the application-attached info in a pointer. The paper
// (§3) insists pointers stay small because "large pointers will finally
// deflate the peer lists".
const MaxInfoLen = 255

// Pointer is a piece of information about another node.
type Pointer struct {
	Addr  Addr
	ID    nodeid.ID
	Level uint8
	Info  []byte
}

// Eigenstring returns the eigenstring the pointed-to node operates under.
func (p Pointer) Eigenstring() nodeid.Eigenstring {
	return nodeid.EigenstringOf(p.ID, int(p.Level))
}

// Equal reports whether two pointers are identical, including attached
// info.
//
//pwlint:noalloc
func (p Pointer) Equal(q Pointer) bool {
	if p.Addr != q.Addr || p.ID != q.ID || p.Level != q.Level || len(p.Info) != len(q.Info) {
		return false
	}
	for i := range p.Info {
		if p.Info[i] != q.Info[i] {
			return false
		}
	}
	return true
}

// encodedSize returns the exact marshalled size of the pointer in bytes:
// 8 (addr) + 16 (id) + 1 (level) + 1 (info length) + len(info).
func (p Pointer) encodedSize() int { return 8 + 16 + 1 + 1 + len(p.Info) }

// SizeBits returns the marshalled size in bits, the unit the paper's
// bandwidth math uses.
func (p Pointer) SizeBits() int { return 8 * p.encodedSize() }

// marshal appends the pointer's wire form to b, builder-style: callers
// thread one buffer through the whole message.
//
//pwlint:noalloc
func (p Pointer) marshal(b []byte) []byte {
	if len(p.Info) > MaxInfoLen {
		panic(fmt.Sprintf("wire: pointer info %d bytes exceeds %d", len(p.Info), MaxInfoLen)) //pwlint:allow noalloc panic path, oversized info is a caller bug
	}
	b = binary.BigEndian.AppendUint64(b, uint64(p.Addr))
	idb := p.ID.Bytes()
	b = append(b, idb[:]...)
	b = append(b, p.Level)
	b = append(b, uint8(len(p.Info)))
	b = append(b, p.Info...)
	return b
}

var (
	errShort = errors.New("wire: truncated message")
	// errLevel rejects a level or prefix length above nodeid.Bits: no
	// eigenstring has one, so a node could neither hold nor answer it.
	errLevel = fmt.Errorf("wire: level or prefix length above %d", nodeid.Bits)
)

func unmarshalPointer(b []byte) (Pointer, []byte, error) {
	if len(b) < 26 {
		return Pointer{}, nil, errShort
	}
	var p Pointer
	p.Addr = Addr(binary.BigEndian.Uint64(b))
	id, err := nodeid.FromBytes(b[8:24])
	if err != nil {
		return Pointer{}, nil, err
	}
	p.ID = id
	if p.Level = b[24]; p.Level > nodeid.Bits {
		return Pointer{}, nil, errLevel
	}
	infoLen := int(b[25])
	b = b[26:]
	if len(b) < infoLen {
		return Pointer{}, nil, errShort
	}
	if infoLen > 0 {
		p.Info = append([]byte(nil), b[:infoLen]...)
	}
	return p, b[infoLen:], nil
}

// EventKind enumerates the state changes that are multicast around a
// node's audience set (§2, §4.6).
type EventKind uint8

const (
	// EventJoin announces a node entering the system (or raising its
	// level after warm-up, which widens its audience responsibilities).
	EventJoin EventKind = iota + 1
	// EventLeave announces a departure, detected by ring probing (§4.1)
	// or given voluntarily.
	EventLeave
	// EventLevelShift announces a level change (§4.3); the pointer
	// carries the new level.
	EventLevelShift
	// EventInfoChange announces new application-attached info (§3).
	EventInfoChange
	// EventRefresh is the §4.6 anti-entropy re-announcement that bounds
	// error accumulation.
	EventRefresh
)

// String implements fmt.Stringer for diagnostics.
func (k EventKind) String() string {
	switch k {
	case EventJoin:
		return "join"
	case EventLeave:
		return "leave"
	case EventLevelShift:
		return "level-shift"
	case EventInfoChange:
		return "info-change"
	case EventRefresh:
		return "refresh"
	default:
		return fmt.Sprintf("event(%d)", uint8(k))
	}
}

// Valid reports whether the kind is one of the defined events.
func (k EventKind) Valid() bool { return k >= EventJoin && k <= EventRefresh }

// Event is one state-changing announcement. Seq disambiguates events from
// the same subject so receivers can drop duplicates and stale reorderings.
type Event struct {
	Kind    EventKind
	Subject Pointer // the changing node, post-change
	Seq     uint64  // per-subject sequence number
}

// encodedSize returns the exact marshalled size of the event in bytes:
// 1 (kind) + 8 (seq) + the subject pointer.
func (e Event) encodedSize() int { return 1 + 8 + e.Subject.encodedSize() }

// SizeBits returns the marshalled event size in bits.
func (e Event) SizeBits() int { return 8 * e.encodedSize() }

// marshal appends the event's wire form to b.
//
//pwlint:noalloc
func (e Event) marshal(b []byte) []byte {
	b = append(b, uint8(e.Kind))
	b = binary.BigEndian.AppendUint64(b, e.Seq)
	return e.Subject.marshal(b)
}

func unmarshalEvent(b []byte) (Event, []byte, error) {
	if len(b) < 9 {
		return Event{}, nil, errShort
	}
	var e Event
	e.Kind = EventKind(b[0])
	if !e.Kind.Valid() {
		return Event{}, nil, fmt.Errorf("wire: invalid event kind %d", b[0])
	}
	e.Seq = binary.BigEndian.Uint64(b[1:9])
	subj, rest, err := unmarshalPointer(b[9:])
	if err != nil {
		return Event{}, nil, err
	}
	e.Subject = subj
	return e, rest, nil
}

// AddrFromIPv4 packs an IPv4 address and UDP port into the opaque Addr
// (high 32 bits: the IPv4 octets; low 16 bits: the port). The UDP
// transport uses this so pointers carry real network endpoints, as the
// paper's pointer definition prescribes ("the corresponding node's IP
// address").
func AddrFromIPv4(ip [4]byte, port uint16) Addr {
	return Addr(uint64(ip[0])<<40 | uint64(ip[1])<<32 | uint64(ip[2])<<24 |
		uint64(ip[3])<<16 | uint64(port))
}

// IPv4 unpacks an Addr produced by AddrFromIPv4.
func (a Addr) IPv4() (ip [4]byte, port uint16) {
	ip[0] = byte(a >> 40)
	ip[1] = byte(a >> 32)
	ip[2] = byte(a >> 24)
	ip[3] = byte(a >> 16)
	port = uint16(a)
	return ip, port
}
