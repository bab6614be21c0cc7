// Helper-evasion cases: the wall clock, global rand and goroutines hide
// one or two calls away in a package outside the determinism contract.
// The old intraprocedural pass provably missed every one of these; the
// call-graph fact engine reports them at the call site with the
// offending path.
package core

import "pwfixture/outside"

func evadeClock() int64 {
	return outside.SneakyNow() // want `call to outside\.SneakyNow in deterministic package: the callee may read the wall clock`
}

func evadeTwoHops() int64 {
	return outside.DoubleHop() // want `call to outside\.DoubleHop in deterministic package: the callee may read the wall clock`
}

func evadeRand() int {
	return outside.Jitter() // want `call to outside\.Jitter in deterministic package: the callee may draw from global math/rand`
}

func evadeGo() {
	outside.Detach(func() {}) // want `call to outside\.Detach in deterministic package: the callee may start goroutines`
}

// okPureHelper: calling an out-of-scope helper is fine when its fact
// summary is clean.
func okPureHelper(x int) int {
	return outside.Scale(x)
}

// allowedEvasion: the escape hatch still works on interprocedural
// findings, and the allow keeps the edge out of this function's own
// fact summary.
func allowedEvasion() int64 {
	return outside.SneakyNow() //pwlint:allow nodeterminism wall clock used for coarse logging only
}

// Env stands in for core.Env, the capability seam: Send and SetTimer are
// order-sensitive primitives the map-range rule knows by name, even
// though interface calls carry no other determinism fact.
type Env interface {
	Now() int64
	Send(to uint64)
	SetTimer(delay int64, fn func())
}

type peerSet struct {
	env   Env
	peers map[uint64]int
}

func (p *peerSet) announce() {
	for id := range p.peers { // want `range over map p\.peers in deterministic package: iteration order is random and the body calls core\.Env\.Send`
		p.env.Send(id)
	}
}

// okStamp: reading the clock through the seam is order-insensitive.
func (p *peerSet) okStamp() {
	for id := range p.peers {
		p.peers[id] = int(p.env.Now())
	}
}
