// Package nodeid implements the 128-bit identifier space PeerWindow nodes
// live in, together with the prefix ("eigenstring") arithmetic the protocol
// is built on.
//
// Every PeerWindow node has a 128-bit nodeId, commonly the consistent hash
// of its public key or IP address, so identifiers are assumed uniformly
// distributed. A node running at level l is responsible for (keeps pointers
// to) every node whose nodeId shares its first l bits; that l-bit prefix is
// the node's eigenstring. The audience set of a node X — everyone who holds
// a pointer to X — is exactly the set of nodes whose eigenstring is a prefix
// of X's nodeId, which makes audience membership decidable from (nodeId,
// level) pairs alone. This package provides the ID type and all prefix
// predicates the rest of the system relies on.
package nodeid

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"strings"
)

// Bits is the width of a nodeId in bits.
const Bits = 128

// ID is a 128-bit node identifier. The zero value is the all-zero
// identifier. Word 0 holds the most significant 64 bits, so bit 0 of the
// identifier (the first bit consulted by the protocol) is the top bit of
// Hi.
type ID struct {
	Hi, Lo uint64
}

// FromBytes builds an ID from a 16-byte big-endian slice.
func FromBytes(b []byte) (ID, error) {
	if len(b) != 16 {
		return ID{}, fmt.Errorf("nodeid: want 16 bytes, got %d", len(b))
	}
	return ID{
		Hi: binary.BigEndian.Uint64(b[0:8]),
		Lo: binary.BigEndian.Uint64(b[8:16]),
	}, nil
}

// Bytes returns the 16-byte big-endian representation of the ID.
func (id ID) Bytes() [16]byte {
	var b [16]byte
	binary.BigEndian.PutUint64(b[0:8], id.Hi)
	binary.BigEndian.PutUint64(b[8:16], id.Lo)
	return b
}

// Hash derives an ID by consistent hashing of an arbitrary byte string,
// e.g. a public key or an IP address, as the paper prescribes (§2).
func Hash(data []byte) ID {
	sum := sha256.Sum256(data)
	id, _ := FromBytes(sum[:16])
	return id
}

// HashString is Hash for strings.
func HashString(s string) ID { return Hash([]byte(s)) }

// String renders the ID as 32 hex digits.
func (id ID) String() string {
	return fmt.Sprintf("%016x%016x", id.Hi, id.Lo)
}

// Parse reads an ID from the 32-hex-digit form produced by String.
func Parse(s string) (ID, error) {
	if len(s) != 32 {
		return ID{}, errors.New("nodeid: want 32 hex digits")
	}
	var id ID
	if _, err := fmt.Sscanf(s[:16], "%016x", &id.Hi); err != nil {
		return ID{}, fmt.Errorf("nodeid: bad hex: %w", err)
	}
	if _, err := fmt.Sscanf(s[16:], "%016x", &id.Lo); err != nil {
		return ID{}, fmt.Errorf("nodeid: bad hex: %w", err)
	}
	return id, nil
}

// Bit returns bit i of the identifier, where bit 0 is the most significant
// bit (the first bit the protocol looks at).
func (id ID) Bit(i int) uint {
	if i < 0 || i >= Bits {
		panic(fmt.Sprintf("nodeid: bit index %d out of range", i))
	}
	if i < 64 {
		return uint(id.Hi>>(63-i)) & 1
	}
	return uint(id.Lo>>(127-i)) & 1
}

// WithBit returns a copy of id with bit i (MSB-first numbering) set to v.
func (id ID) WithBit(i int, v uint) ID {
	if i < 0 || i >= Bits {
		panic(fmt.Sprintf("nodeid: bit index %d out of range", i))
	}
	if i < 64 {
		mask := uint64(1) << (63 - i)
		if v&1 == 1 {
			id.Hi |= mask
		} else {
			id.Hi &^= mask
		}
		return id
	}
	mask := uint64(1) << (127 - i)
	if v&1 == 1 {
		id.Lo |= mask
	} else {
		id.Lo &^= mask
	}
	return id
}

// FlipBit returns a copy of id with bit i inverted.
func (id ID) FlipBit(i int) ID {
	return id.WithBit(i, 1-id.Bit(i))
}

// Compare orders identifiers as unsigned 128-bit integers. It returns -1,
// 0, or +1.
func (id ID) Compare(other ID) int {
	switch {
	case id.Hi < other.Hi:
		return -1
	case id.Hi > other.Hi:
		return 1
	case id.Lo < other.Lo:
		return -1
	case id.Lo > other.Lo:
		return 1
	default:
		return 0
	}
}

// Less reports whether id sorts strictly before other.
func (id ID) Less(other ID) bool { return id.Compare(other) < 0 }

// CommonPrefixLen returns the number of leading bits id and other share,
// in [0, 128].
func (id ID) CommonPrefixLen(other ID) int {
	if x := id.Hi ^ other.Hi; x != 0 {
		return bits.LeadingZeros64(x)
	}
	if x := id.Lo ^ other.Lo; x != 0 {
		return 64 + bits.LeadingZeros64(x)
	}
	return Bits
}

// Prefix truncates the ID to its first l bits, zeroing the rest. It is the
// canonical representative of the eigenstring of length l containing id.
func (id ID) Prefix(l int) ID {
	switch {
	case l <= 0:
		return ID{}
	case l >= Bits:
		return id
	case l <= 64:
		if l == 64 {
			return ID{Hi: id.Hi}
		}
		return ID{Hi: id.Hi &^ (^uint64(0) >> l)}
	default:
		return ID{Hi: id.Hi, Lo: id.Lo &^ (^uint64(0) >> (l - 64))}
	}
}

// BitString renders the first n bits of the identifier as a string of '0'
// and '1' characters, matching the paper's figures.
func (id ID) BitString(n int) string {
	if n < 0 || n > Bits {
		panic(fmt.Sprintf("nodeid: bitstring length %d out of range", n))
	}
	var sb strings.Builder
	sb.Grow(n)
	for i := 0; i < n; i++ {
		sb.WriteByte('0' + byte(id.Bit(i)))
	}
	return sb.String()
}

// FromBitString parses a string of '0'/'1' characters as the leading bits
// of an identifier; remaining bits are zero. It is the inverse of
// BitString for the canonical (zero-padded) representative.
func FromBitString(s string) (ID, error) {
	if len(s) > Bits {
		return ID{}, fmt.Errorf("nodeid: bit string longer than %d bits", Bits)
	}
	var id ID
	for i, c := range s {
		switch c {
		case '0':
		case '1':
			id = id.WithBit(i, 1)
		default:
			return ID{}, fmt.Errorf("nodeid: bit string contains %q", c)
		}
	}
	return id, nil
}

// Add returns id + delta (mod 2^128). It is used to walk the identifier
// ring.
func (id ID) Add(delta ID) ID {
	lo, carry := bits.Add64(id.Lo, delta.Lo, 0)
	hi, _ := bits.Add64(id.Hi, delta.Hi, carry)
	return ID{Hi: hi, Lo: lo}
}

// Sub returns id - delta (mod 2^128).
func (id ID) Sub(delta ID) ID {
	lo, borrow := bits.Sub64(id.Lo, delta.Lo, 0)
	hi, _ := bits.Sub64(id.Hi, delta.Hi, borrow)
	return ID{Hi: hi, Lo: lo}
}

// IsZero reports whether the identifier is all zeros.
func (id ID) IsZero() bool { return id.Hi == 0 && id.Lo == 0 }

// MarshalText implements encoding.TextMarshaler using the 32-hex-digit
// form, making IDs usable directly in JSON object keys and config files.
func (id ID) MarshalText() ([]byte, error) {
	return []byte(id.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler, inverting
// MarshalText.
func (id *ID) UnmarshalText(b []byte) error {
	parsed, err := Parse(string(b))
	if err != nil {
		return err
	}
	*id = parsed
	return nil
}
