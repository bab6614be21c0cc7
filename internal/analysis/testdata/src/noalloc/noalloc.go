// Package noalloc exercises the //pwlint:noalloc contract: annotated
// functions may not allocate directly or through any transitive callee,
// while the amortized builder idioms blessed by the runtime alloc
// guards (self-append, append-make grow, sort.Search closures,
// func-parameter callbacks) stay clean.
package noalloc

import "sort"

// freshSlice allocates; annotated callers of it must be flagged.
func freshSlice(n int) []int {
	return make([]int, n)
}

// middleman adds a hop between the annotated caller and the allocation.
func middleman(n int) []int {
	return freshSlice(n)
}

//pwlint:noalloc
func badMake(n int) []int {
	return make([]int, n) // want `allocation in //pwlint:noalloc function pwfixture\.badMake: make`
}

//pwlint:noalloc
func badTransitive(n int) int {
	s := freshSlice(n) // want `call to pwfixture\.freshSlice in //pwlint:noalloc function pwfixture\.badTransitive may allocate`
	return len(s)
}

//pwlint:noalloc
func badTwoHops(n int) int {
	s := middleman(n) // want `call to pwfixture\.middleman in //pwlint:noalloc function pwfixture\.badTwoHops may allocate`
	return len(s)
}

//pwlint:noalloc
func badConcat(a, b string) string {
	return a + b // want `allocation in //pwlint:noalloc function pwfixture\.badConcat: string concatenation`
}

var sink interface{}

//pwlint:noalloc
func badBox(x int) {
	sink = x // want `allocation in //pwlint:noalloc function pwfixture\.badBox: interface conversion in assignment`
}

//pwlint:noalloc
func badClosure(n int) func() int {
	return func() int { return n } // want `allocation in //pwlint:noalloc function pwfixture\.badClosure: closure captures variables`
}

//pwlint:noalloc
func badMapWrite(m map[int]int, k int) {
	m[k] = k // want `allocation in //pwlint:noalloc function pwfixture\.badMapWrite: map assignment`
}

type buf struct {
	b      []byte
	levels [8]int
}

// push is the amortized self-append builder: steady-state zero-alloc,
// exactly what the AllocsPerRun runtime guards measure.
//
//pwlint:noalloc
func (w *buf) push(x byte) {
	w.b = append(w.b, x)
}

// grow uses the append-make idiom to extend in place; also blessed.
//
//pwlint:noalloc
func (w *buf) grow(n int) {
	w.b = append(w.b, make([]byte, n)...)
}

// lookup hands a closure to sort.Search, which is known not to let it
// escape; the capture stays on the stack.
//
//pwlint:noalloc
func (w *buf) lookup(x int) int {
	return sort.Search(len(w.levels), func(i int) bool { return w.levels[i] >= x })
}

// trackedHelper binds a literal to a call-only local; the literal folds
// into this function's own summary instead of counting as a closure
// allocation, even though its call sites come after the binding.
//
//pwlint:noalloc
func trackedHelper(xs []int) int {
	t := 0
	add := func(x int) { t += x }
	for _, x := range xs {
		add(x)
	}
	return t
}

// appendByte is the builder-return idiom — append to the slice you were
// handed and return it, the shape of encoding/binary's Append* helpers.
//
//pwlint:noalloc
func appendByte(b []byte, x byte) []byte {
	return append(b, x)
}

// paramCall runs a caller-supplied callback: the noalloc contract
// covers this function's own sites, the callback belongs to the caller.
//
//pwlint:noalloc
func paramCall(f func() int) int {
	return f()
}

// sum is plainly allocation-free.
//
//pwlint:noalloc
func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// allowedAlloc documents a justified cold-path allocation; the allow
// suppresses the diagnostic and keeps the site out of the fact summary.
//
//pwlint:noalloc
func allowedAlloc(n int) []int {
	return make([]int, n) //pwlint:allow noalloc cold path, runs once at startup
}

// callsAllowed stays clean: the allowed site above does not poison
// callers.
//
//pwlint:noalloc
func callsAllowed(n int) int {
	return len(allowedAlloc(n))
}

// rec carries its own free-list link; linked is the constraint a
// generic free list reaches it through.
type rec struct{ next *rec }

func (r *rec) Link() **rec { return &r.next }

type linked[R any] interface {
	*R
	Link() **R
}

// unlink calls a method on a type parameter: it resolves by name to
// rec.Link, which does not allocate.
//
//pwlint:noalloc
func unlink[R any, P linked[R]](r *R) *R {
	return *P(r).Link()
}

// fresh hands out a new link slot each call; grabber reaches it through
// a type parameter.
type fresh struct{ next *fresh }

func (f *fresh) Grab() **fresh { return new(*fresh) }

type grabber[R any] interface {
	*R
	Grab() **R
}

//pwlint:noalloc
func grab[R any, P grabber[R]](r *R) **R {
	return P(r).Grab() // want `call to pwfixture\.fresh\.Grab in //pwlint:noalloc function pwfixture\.grab may allocate`
}
