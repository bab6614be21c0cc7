package des

import "testing"

// These guards pin the //pwlint:noalloc contracts on the engine hot path
// at runtime: once the slab, heap and free list have warmed to steady
// state, scheduling, firing and cancelling events must not allocate.

func TestScheduleFireSteadyStateDoesNotAllocate(t *testing.T) {
	e := New()
	fn := func() {}
	for i := 0; i < 4096; i++ {
		e.At(e.Now()+1, fn)
		e.Step()
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		e.At(e.Now()+1, fn)
		e.Step()
	}); allocs != 0 {
		t.Fatalf("schedule+fire allocates %v per cycle", allocs)
	}
}

func TestCancelCompactSteadyStateDoesNotAllocate(t *testing.T) {
	e := New()
	fn := func() {}
	// Warm past several compaction cycles so the corpse-skimming and
	// free-list machinery reach their stable capacities.
	for i := 0; i < 4096; i++ {
		e.At(e.Now()+1, fn).Cancel()
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		h := e.At(e.Now()+1, fn)
		if !h.Cancel() {
			t.Fatal("cancel failed")
		}
	}); allocs != 0 {
		t.Fatalf("schedule+cancel allocates %v per cycle", allocs)
	}
	if _, ok := e.NextAt(); ok {
		t.Fatal("live event left behind after cancelling everything")
	}
}

// countAction is a pooled record's stand-in: a pointer that fires
// without a closure.
type countAction struct{ n int }

func (a *countAction) Fire() { a.n++ }

func TestScheduleActionSteadyStateDoesNotAllocate(t *testing.T) {
	e := New()
	a := new(countAction)
	tag := EventTag{Owner: 3, Kind: 1}
	for i := 0; i < 4096; i++ {
		e.Schedule(e.Now()+1, uint64(i), tag, a)
		e.Step()
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		e.Schedule(e.Now()+1, 7, tag, a)
		e.Step()
	}); allocs != 0 {
		t.Fatalf("Schedule+fire of an action allocates %v per cycle", allocs)
	}
	if a.n != 4096+1001 {
		t.Fatalf("action fired %d times, want %d", a.n, 4096+1001)
	}
}
