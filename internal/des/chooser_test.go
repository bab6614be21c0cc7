package des

import (
	"reflect"
	"testing"
)

// chooserFunc adapts a closure to the Chooser interface.
type chooserFunc func(now Time, choices []Choice) Decision

func (f chooserFunc) Choose(now Time, choices []Choice) Decision { return f(now, choices) }

func TestRunnableCanonicalOrder(t *testing.T) {
	e := New()
	e.After(3*Second, func() {})
	e.AfterTag(1*Second, EventTag{Owner: 7, Kind: 2}, func() {})
	h := e.After(2*Second, func() {})
	e.AfterTag(1*Second, EventTag{Owner: 9, Kind: 1}, func() {})
	h.Cancel() // cancelled events must not be offered

	cs := e.Runnable()
	if len(cs) != 3 {
		t.Fatalf("runnable: %d choices, want 3", len(cs))
	}
	if cs[0].At != 1*Second || cs[0].Tag.Owner != 7 {
		t.Fatalf("first choice %+v; want the (1s, seq1) event", cs[0])
	}
	if cs[1].At != 1*Second || cs[1].Tag.Owner != 9 {
		t.Fatalf("second choice %+v; want the (1s, seq3) event", cs[1])
	}
	if cs[2].At != 3*Second || cs[2].Tag != (EventTag{}) {
		t.Fatalf("third choice %+v; want the untagged 3s event", cs[2])
	}
}

// TestChooserReordersAndWarpsTime: picking a later event first runs it
// at its own time, and the skipped earlier event then fires late at the
// warped clock.
func TestChooserReordersAndWarpsTime(t *testing.T) {
	e := New()
	var order []string
	var times []Time
	record := func(name string) func() {
		return func() {
			order = append(order, name)
			times = append(times, e.Now())
		}
	}
	e.AfterTag(1*Second, EventTag{Owner: 1, Kind: 1}, record("early"))
	e.AfterTag(5*Second, EventTag{Owner: 2, Kind: 1}, record("late"))

	picks := []int{1, 0} // fire the later event first
	e.SetChooser(chooserFunc(func(now Time, cs []Choice) Decision {
		i := picks[0]
		picks = picks[1:]
		return Decision{Index: i}
	}))
	for e.Step() {
	}
	if !reflect.DeepEqual(order, []string{"late", "early"}) {
		t.Fatalf("execution order %v", order)
	}
	// "late" runs at its own time; "early" has been delayed past it and
	// fires at the warped clock, never rolling time back.
	if times[0] != 5*Second || times[1] != 5*Second {
		t.Fatalf("execution times %v; want [5s 5s]", times)
	}
	if e.Now() != 5*Second {
		t.Fatalf("clock at %v; want 5s", e.Now())
	}
}

func TestChooserDropDiscardsEvent(t *testing.T) {
	e := New()
	fired := 0
	e.AfterTag(1*Second, EventTag{Owner: 1, Kind: 1}, func() { fired++ })
	e.AfterTag(2*Second, EventTag{Owner: 2, Kind: 1}, func() { fired++ })

	first := true
	e.SetChooser(chooserFunc(func(now Time, cs []Choice) Decision {
		if first {
			first = false
			return Decision{Index: 0, Drop: true}
		}
		return Decision{Index: 0}
	}))
	steps := 0
	for e.Step() {
		steps++
	}
	if steps != 2 {
		t.Fatalf("took %d steps, want 2 (one drop, one fire)", steps)
	}
	if fired != 1 {
		t.Fatalf("%d callbacks fired, want 1", fired)
	}
	if e.Dropped() != 1 {
		t.Fatalf("Dropped() = %d, want 1", e.Dropped())
	}
	// Dropping must not advance the clock: the drop happened at time 0.
	if e.Now() != 2*Second {
		t.Fatalf("clock at %v; want 2s (only the fired event advanced it)", e.Now())
	}
}

// TestChooserClearedResumesDeterministicOrder: clearing the chooser
// hands the remaining queue back to (time, seq) order — the explorer's
// drain phase.
func TestChooserClearedResumesDeterministicOrder(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		e.AfterTag(Time(i+1)*Second, EventTag{Owner: uint64(i + 1), Kind: 1}, func() {
			order = append(order, i)
		})
	}
	e.SetChooser(chooserFunc(func(now Time, cs []Choice) Decision {
		return Decision{Index: len(cs) - 1} // fire the last event first
	}))
	e.Step()
	e.SetChooser(nil)
	e.Run(MaxTime - 1)
	if !reflect.DeepEqual(order, []int{3, 0, 1, 2}) {
		t.Fatalf("order %v; want [3 0 1 2]", order)
	}
}

func TestRunPanicsWithChooserInstalled(t *testing.T) {
	e := New()
	e.SetChooser(chooserFunc(func(now Time, cs []Choice) Decision { return Decision{} }))
	defer func() {
		if recover() == nil {
			t.Fatal("Run with a chooser installed did not panic")
		}
	}()
	e.Run(Second)
}

func TestNextAtSkimsCorpses(t *testing.T) {
	e := New()
	h := e.After(1*Second, func() {})
	e.After(2*Second, func() {})
	h.Cancel()
	at, ok := e.NextAt()
	if !ok || at != 2*Second {
		t.Fatalf("NextAt = (%v, %v); want (2s, true)", at, ok)
	}
	e.Run(3 * Second)
	if _, ok := e.NextAt(); ok {
		t.Fatal("NextAt reported a live event on a drained engine")
	}
}

// TestChooserHandleSemantics: a handle to a chooser-fired event is inert
// afterwards, and cancelling it reports false.
func TestChooserHandleSemantics(t *testing.T) {
	e := New()
	h := e.AfterTag(1*Second, EventTag{Owner: 1, Kind: 1}, func() {})
	e.SetChooser(chooserFunc(func(now Time, cs []Choice) Decision { return Decision{Index: 0} }))
	e.Step()
	if h.Pending() {
		t.Fatal("fired event still pending")
	}
	if h.Cancel() {
		t.Fatal("cancelling a fired event reported true")
	}
}

// scheduleForms schedules one event through each entry point: a func
// through AtKey, and an Action through Schedule. Both must behave alike
// under Cancel, Pending and a chooser's Drop.
var scheduleForms = map[string]func(e *Engine, t Time, tag EventTag, fired *int) Handle{
	"func": func(e *Engine, t Time, tag EventTag, fired *int) Handle {
		return e.AtKey(t, 0, tag, func() { *fired++ })
	},
	"action": func(e *Engine, t Time, tag EventTag, fired *int) Handle {
		return e.Schedule(t, 0, tag, Func(func() { *fired++ }))
	},
}

func TestActionEventsBehaveLikeFuncEvents(t *testing.T) {
	for name, schedule := range scheduleForms {
		t.Run(name, func(t *testing.T) {
			e := New()
			fired := 0
			a := schedule(e, Second, EventTag{Owner: 1, Kind: 1}, &fired)
			b := schedule(e, 2*Second, EventTag{Owner: 2, Kind: 1}, &fired)
			c := schedule(e, 3*Second, EventTag{Owner: 3, Kind: 2}, &fired)
			if !a.Pending() || e.Pending() != 3 {
				t.Fatalf("after scheduling: pending %v, engine pending %d", a.Pending(), e.Pending())
			}
			if !a.Cancel() || a.Cancel() || a.Pending() || e.Pending() != 2 {
				t.Fatal("cancel: the first cancel must succeed, the second fail, and the handle go inert")
			}
			// The chooser drops b (offered first) and fires c.
			e.SetChooser(chooserFunc(func(now Time, cs []Choice) Decision {
				if cs[0].Tag.Owner == 2 {
					return Decision{Index: 0, Drop: true}
				}
				return Decision{Index: 0}
			}))
			for e.Step() {
			}
			if fired != 1 || e.Dropped() != 1 || b.Pending() || c.Pending() || e.Pending() != 0 {
				t.Fatalf("fired %d, dropped %d, pending %v/%v/%d; want 1 fired, 1 dropped, none pending",
					fired, e.Dropped(), b.Pending(), c.Pending(), e.Pending())
			}
		})
	}
}

func TestScheduleNilActionPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("nil action did not panic")
		}
	}()
	e.Schedule(0, 0, EventTag{}, nil)
}
