// Package xrand stands in for the seeded random source: every method
// advances the stream, so the order of calls decides who gets which
// draw.
package xrand

// Source is a stub seeded stream.
type Source struct{ state uint64 }

// Intn draws.
func (s *Source) Intn(n int) int {
	s.state = s.state*6364136223846793005 + 1442695040888963407
	return int(s.state>>33) % n
}
