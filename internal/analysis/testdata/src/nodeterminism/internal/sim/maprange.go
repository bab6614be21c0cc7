// Package sim stands in for the simulator: its import path ends in
// internal/sim, so ranging over a map with an order-sensitive body is a
// finding — Go randomizes map iteration, and a seeded run must not.
package sim

import (
	"sort"

	"pwfixture/internal/des"
	"pwfixture/internal/xrand"
)

type node struct {
	id    uint64
	level int
	log   []int
}

type world struct {
	nodes  map[uint64]*node
	engine *des.Engine
	rng    *xrand.Source
}

// --- findings -----------------------------------------------------------

// A level sweep over a node map: moves end up in map order.
func (w *world) collectMoves() []*node {
	var moves []*node
	for _, n := range w.nodes { // want `range over map w\.nodes in deterministic package: iteration order is random and the body appends to moves, which outlives the loop`
		if n.level > 0 {
			moves = append(moves, n)
		}
	}
	return moves
}

// An error-rate sampler over a node map: "the first k nodes" of a map.
func (w *world) sampleFirst(k int) int {
	sum, i := 0, 0
	for _, n := range w.nodes { // want `range over map w\.nodes .* the body breaks out early`
		if i >= k {
			break
		}
		i++
		sum += n.level
	}
	return sum
}

func (w *world) anyDeep() *node {
	for _, n := range w.nodes { // want `the body returns a value from inside the loop`
		if n.level > 3 {
			return n
		}
	}
	return nil
}

func (w *world) labeledBreak() int {
	seen := 0
scan:
	for _, n := range w.nodes { // want `the body breaks out early`
		switch {
		case n.level > 3:
			break scan
		default:
			seen++
		}
	}
	return seen
}

func (w *world) scheduleAll() {
	for _, n := range w.nodes { // want `the body calls des\.Engine\.After, which may schedule an event or draw from a seeded stream`
		n := n
		w.engine.After(1, func() { n.level++ })
	}
}

func (w *world) scheduleActions(a des.Action) {
	for _, n := range w.nodes { // want `the body calls des\.Engine\.Schedule, which may schedule an event or draw from a seeded stream`
		w.engine.Schedule(1, n.id, a)
	}
}

// deliverAt hides the Schedule one call away, as the cluster's own
// deliverAt does.
func (w *world) deliverAt(n *node, a des.Action) { w.engine.Schedule(2, n.id, a) }

func (w *world) deliverAll(a des.Action) {
	for _, n := range w.nodes { // want `the body calls sim\.world\.deliverAt, which may schedule an event or draw from a seeded stream`
		w.deliverAt(n, a)
	}
}

// pick hides the draw one call away; the order fact carries it back.
func (w *world) pick(n *node) int { return w.rng.Intn(n.level + 1) }

func (w *world) drawPerNode() {
	for _, n := range w.nodes { // want `the body calls sim\.world\.pick, which may schedule an event or draw from a seeded stream`
		n.level = w.pick(n)
	}
}

// --- clean --------------------------------------------------------------

// The recommended idiom: the collecting loop appends in map order, but
// the slice is sorted before anyone reads it.
func (w *world) sortedIDs() []uint64 {
	ids := make([]uint64, 0, len(w.nodes))
	for id := range w.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (w *world) scheduleAllSorted() {
	for _, id := range w.sortedIDs() {
		n := w.nodes[id]
		w.engine.After(1, func() { n.level++ })
	}
}

// Commutative bodies: an integer sum, a per-element update, a deletion,
// an append to the element's own slice, an append to a loop-local slice.
func (w *world) commutative() int {
	total := 0
	for id, n := range w.nodes {
		total += n.level
		n.level++
		n.log = append(n.log, total)
		var scratch []int
		scratch = append(scratch, n.level)
		if len(scratch) > 1 || w.engine.Pending() < 0 {
			delete(w.nodes, id)
		}
	}
	return total
}

// A search that returns only constants gives the same answer in any
// order.
func (w *world) hasDeep() bool {
	for _, n := range w.nodes {
		if n.level > 3 {
			return true
		}
	}
	return false
}

// The break leaves the inner loop, not the map range.
func (w *world) innerBreak() int {
	count := 0
	for _, n := range w.nodes {
		for _, v := range n.log {
			if v < 0 {
				break
			}
			count++
		}
	}
	return count
}

// Breaking out of a slice range is fine: slices have an order.
func firstNegative(xs []int) int {
	at := -1
	for i, x := range xs {
		if x < 0 {
			at = i
			break
		}
	}
	return at
}

func (w *world) allowed(k int) int {
	sum, i := 0, 0
	//pwlint:allow nodeterminism legacy sampler, kept for a comparison test only
	for _, n := range w.nodes {
		if i >= k {
			break
		}
		i++
		sum += n.level
	}
	return sum
}
