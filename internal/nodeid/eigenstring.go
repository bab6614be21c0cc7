package nodeid

import "fmt"

// Eigenstring is the first Len bits of a node's identifier — the prefix
// that determines which peers the node is responsible for. The unused low
// bits of Prefix are always zero, so Eigenstring values are comparable
// with == and usable as map keys. The zero value is the blank eigenstring
// of a level-0 node, whose peer list covers the whole system.
type Eigenstring struct {
	// Prefix holds the eigenstring bits left-aligned; bits beyond Len are
	// zero.
	Prefix ID
	// Len is the eigenstring length in bits, equal to the node's level.
	Len int
}

// EigenstringOf returns the eigenstring of a node with the given
// identifier running at the given level.
func EigenstringOf(id ID, level int) Eigenstring {
	if level < 0 || level > Bits {
		panic(fmt.Sprintf("nodeid: level %d out of range", level))
	}
	return Eigenstring{Prefix: id.Prefix(level), Len: level}
}

// ParseEigenstring builds an eigenstring from its "0101" textual form.
func ParseEigenstring(s string) (Eigenstring, error) {
	id, err := FromBitString(s)
	if err != nil {
		return Eigenstring{}, err
	}
	return Eigenstring{Prefix: id, Len: len(s)}, nil
}

// String renders the eigenstring in the paper's "0101" form; the blank
// eigenstring renders as "ε".
func (e Eigenstring) String() string {
	if e.Len == 0 {
		return "ε"
	}
	return e.Prefix.BitString(e.Len)
}

// Level returns the level of a node carrying this eigenstring, which by
// construction equals the eigenstring length.
func (e Eigenstring) Level() int { return e.Len }

// Contains reports whether the identifier falls in this eigenstring's
// responsibility region, i.e. whether the eigenstring is a prefix of id.
// A node keeps a pointer to every node whose ID it Contains.
func (e Eigenstring) Contains(id ID) bool {
	return id.Prefix(e.Len) == e.Prefix
}

// IsPrefixOf reports whether e is a (non-strict) prefix of other. When a
// node's eigenstring is a prefix of another's, the paper calls the former
// node "stronger": its peer list completely covers the latter's.
func (e Eigenstring) IsPrefixOf(other Eigenstring) bool {
	return e.Len <= other.Len && other.Prefix.Prefix(e.Len) == e.Prefix
}

// Sibling flips the last bit of the eigenstring. Calling Sibling on the
// blank eigenstring panics.
func (e Eigenstring) Sibling() Eigenstring {
	if e.Len == 0 {
		panic("nodeid: blank eigenstring has no sibling")
	}
	return Eigenstring{Prefix: e.Prefix.FlipBit(e.Len - 1), Len: e.Len}
}
