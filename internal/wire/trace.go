package wire

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"

	"peerwindow/internal/nodeid"
)

// TraceID identifies one causal chain of protocol activity: the multicast
// tree grown from a single originated event. Origin is the nodeId of the
// node that stamped the ID (the announcing subject on the report path, or
// the originating top node when the report arrived unstamped) and Seq is
// that node's private trace counter, so the pair is globally unique
// without coordination.
//
// The zero TraceID means "untraced". Messages carrying it encode exactly
// as they did before tracing existed (see Message.Marshal), which is what
// keeps tracing zero-cost — and the wire format byte-identical — when no
// span sink is attached.
type TraceID struct {
	Origin nodeid.ID
	Seq    uint64
}

// IsZero reports whether the ID is the untraced sentinel.
func (t TraceID) IsZero() bool { return t.Origin.IsZero() && t.Seq == 0 }

// String renders the ID as "<origin-hex>#<seq>".
func (t TraceID) String() string {
	return t.Origin.String() + "#" + strconv.FormatUint(t.Seq, 10)
}

// MarshalText implements encoding.TextMarshaler (JSONL span export).
func (t TraceID) MarshalText() ([]byte, error) { return []byte(t.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (t *TraceID) UnmarshalText(b []byte) error {
	parsed, err := ParseTraceID(string(b))
	if err != nil {
		return err
	}
	*t = parsed
	return nil
}

// ParseTraceID parses the String form.
func ParseTraceID(s string) (TraceID, error) {
	dot := strings.IndexByte(s, '#')
	if dot < 0 {
		return TraceID{}, fmt.Errorf("wire: trace id %q lacks '#'", s)
	}
	origin, err := nodeid.Parse(s[:dot])
	if err != nil {
		return TraceID{}, fmt.Errorf("wire: trace id origin: %w", err)
	}
	seq, err := strconv.ParseUint(s[dot+1:], 10, 64)
	if err != nil {
		return TraceID{}, fmt.Errorf("wire: trace id seq: %w", err)
	}
	return TraceID{Origin: origin, Seq: seq}, nil
}

// Wire layout of the optional trailing trace block: one marker byte
// followed by the 16-byte origin identifier and the 8-byte sequence
// number. The marker disambiguates the block from the bare trailing
// garbage Unmarshal has always rejected.
const (
	traceMarker    = 0x54 // 'T'
	traceBlockSize = 1 + 16 + 8
)

// marshalTrace appends the trace block; callers skip it for zero IDs.
//
//pwlint:noalloc
func (t TraceID) marshalTrace(b []byte) []byte {
	b = append(b, traceMarker)
	ob := t.Origin.Bytes()
	b = append(b, ob[:]...)
	return binary.BigEndian.AppendUint64(b, t.Seq)
}

// unmarshalTrace decodes a trailing trace block. The tail must be exactly
// one block; anything else is the trailing-bytes error the codec has
// always raised.
func unmarshalTrace(b []byte) (TraceID, error) {
	if len(b) != traceBlockSize || b[0] != traceMarker {
		return TraceID{}, fmt.Errorf("wire: %d trailing bytes", len(b))
	}
	origin, err := nodeid.FromBytes(b[1:17])
	if err != nil {
		return TraceID{}, err
	}
	tid := TraceID{Origin: origin, Seq: binary.BigEndian.Uint64(b[17:])}
	if tid.IsZero() {
		// Zero is the untraced sentinel and encodes as no block at all;
		// an explicit zero block is non-canonical, so reject it to keep
		// Marshal∘Unmarshal the identity on valid frames.
		return TraceID{}, fmt.Errorf("wire: zero trace block")
	}
	return tid, nil
}
