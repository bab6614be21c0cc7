// Package freelist is the one free list behind every recycled
// fixed-size record of the simulators: pending sends, deadline-queue
// segments, peer-list chunks and stamp leaves (core), message deliveries
// and timers (sim.Cluster), and flight deadlines (sim.ShardedScaled). In
// the full-fidelity simulator one List serves every node of a cluster,
// which runs on one goroutine, so reuse is LIFO in event order and seeded
// runs stay byte-identical; each ShardedScaled shard has its own List,
// which its worker takes from during a window and the barrier refills
// between windows. A List is not safe for concurrent use.
package freelist

import "fmt"

// Linked is the constraint on a pooled record type R: *R carries its own
// free-list link, so taking a record back allocates nothing.
type Linked[R any] interface {
	*R
	// Link returns the record's link field. The list owns it while the
	// record is free; it is nil while the record is in use.
	Link() **R
}

// maxRefill is the most records one refill allocates.
const maxRefill = 32

// List is an intrusive LIFO free list of R records. The zero List is
// empty and ready to use.
type List[R any, P Linked[R]] struct {
	free *R
	made int
}

// Get takes a record off the list: its link is nil and the rest is as
// Put left it, zero for a fresh one. An empty list is refilled in one
// allocation with as many records as it has made so far, 2 to
// maxRefill: a list that serves one node stays small, and a cluster's
// reaches full refills after a few.
//
//pwlint:noalloc
func (l *List[R, P]) Get() *R {
	if l.free == nil {
		l.refill() //pwlint:allow noalloc pool miss: the list's users hold more records than ever before
	}
	r := l.free
	link := P(r).Link()
	l.free, *link = *link, nil
	return r
}

// refill allocates the next block of records and links them in order.
func (l *List[R, P]) refill() {
	n := min(max(l.made, 2), maxRefill)
	b := make([]R, n)
	for i := 1; i < n; i++ {
		*P(&b[i-1]).Link() = &b[i]
	}
	l.free = &b[0]
	l.made += n
}

// Put returns r to the list. It does not clear r: a caller whose
// records must come back blank blanks them first.
//
//pwlint:noalloc
func (l *List[R, P]) Put(r *R) {
	*P(r).Link() = l.free
	l.free = r
}

// Made returns how many records the list has allocated.
func (l *List[R, P]) Made() int { return l.made }

// Check verifies the list against held, every record its users hold:
// each record the list made is either in held, once, or on the free
// list, once, and free, when not nil, accepts each free record. what
// names the record kind in the error.
func (l *List[R, P]) Check(what string, held []*R, free func(*R) error) error {
	const inUse, onFreeList = 1, 2
	where := make(map[*R]uint8, l.made)
	for _, r := range held {
		if where[r] != 0 {
			return fmt.Errorf("a %s is held twice", what)
		}
		where[r] = inUse
	}
	nfree := 0
	for r := l.free; r != nil; r = *P(r).Link() {
		switch where[r] {
		case inUse:
			return fmt.Errorf("a %s in use is on the free list", what)
		case onFreeList:
			return fmt.Errorf("the free list holds a %s twice", what)
		}
		if free != nil {
			if err := free(r); err != nil {
				return err
			}
		}
		where[r] = onFreeList
		nfree++
	}
	if len(held)+nfree != l.made {
		return fmt.Errorf("%d %ss allocated, %d in use and %d free", l.made, what, len(held), nfree)
	}
	return nil
}
