package des

import "testing"

// RunWindow must execute exactly the events strictly before the limit,
// leave the rest pending, and land the clock on the limit.
func TestRunWindowStrictlyBefore(t *testing.T) {
	e := New()
	var fired []int
	e.At(10, func() { fired = append(fired, 10) })
	e.At(19, func() { fired = append(fired, 19) })
	e.At(20, func() { fired = append(fired, 20) }) // at the limit: next window
	e.At(25, func() { fired = append(fired, 25) })
	e.RunWindow(20)
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 19 {
		t.Fatalf("fired %v, want [10 19]", fired)
	}
	if e.Now() != 20 {
		t.Fatalf("Now() = %v after RunWindow(20)", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", e.Pending())
	}
	e.RunWindow(21)
	if len(fired) != 3 || fired[2] != 20 {
		t.Fatalf("fired %v, want the t=20 event in the next window", fired)
	}
}

// An empty window must still advance the clock to the limit.
func TestRunWindowAdvancesIdleClock(t *testing.T) {
	e := New()
	e.RunWindow(42)
	if e.Now() != 42 {
		t.Fatalf("Now() = %v, want 42", e.Now())
	}
	// A shorter limit must not move the clock backwards.
	e.RunWindow(7)
	if e.Now() != 42 {
		t.Fatalf("Now() = %v after RunWindow(7), want 42", e.Now())
	}
}

// Events scheduled during a window for instants inside it run in the
// same window.
func TestRunWindowCascade(t *testing.T) {
	e := New()
	var fired []Time
	e.At(5, func() {
		fired = append(fired, 5)
		e.At(6, func() { fired = append(fired, 6) })
	})
	e.RunWindow(10)
	if len(fired) != 2 || fired[1] != 6 {
		t.Fatalf("fired %v, want the cascaded t=6 event inside the window", fired)
	}
}

// Same-instant events must order by key regardless of insertion order;
// key zero (the legacy At/AtTag path) sorts first.
func TestAtKeyOrdersSameInstant(t *testing.T) {
	e := New()
	var fired []uint64
	e.AtKey(10, 7, EventTag{}, func() { fired = append(fired, 7) })
	e.AtKey(10, 3, EventTag{}, func() { fired = append(fired, 3) })
	e.At(10, func() { fired = append(fired, 0) })
	e.AtKey(10, 5, EventTag{}, func() { fired = append(fired, 5) })
	e.Run(11)
	want := []uint64{0, 3, 5, 7}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

// Equal (time, key) pairs fall back to insertion order (seq).
func TestAtKeyEqualKeysKeepSeqOrder(t *testing.T) {
	e := New()
	var fired []int
	e.AtKey(10, 9, EventTag{}, func() { fired = append(fired, 1) })
	e.AtKey(10, 9, EventTag{}, func() { fired = append(fired, 2) })
	e.Run(11)
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 {
		t.Fatalf("fired %v, want [1 2]", fired)
	}
}

func TestMailboxDrainOrderAndReuse(t *testing.T) {
	var mb Mailbox[string]
	mb.Put(Envelope[string]{Dst: 1, At: 30, Key: 2, Payload: "b"})
	mb.Put(Envelope[string]{Dst: 0, At: 10, Key: 1, Payload: "a"})
	mb.Put(Envelope[string]{Dst: 2, At: 20, Key: 3, Payload: "c"})
	if mb.Len() != 3 {
		t.Fatalf("Len() = %d", mb.Len())
	}
	var got []string
	mb.Drain(func(env Envelope[string]) { got = append(got, env.Payload) })
	// Drain yields production order — the caller supplies any further
	// ordering (the shard barrier orders by (At, Key) across mailboxes).
	if len(got) != 3 || got[0] != "b" || got[1] != "a" || got[2] != "c" {
		t.Fatalf("drained %v, want production order [b a c]", got)
	}
	if mb.Len() != 0 {
		t.Fatalf("Len() = %d after drain", mb.Len())
	}
	// The drained mailbox is reused for the next window.
	mb.Put(Envelope[string]{Dst: 0, At: 5, Payload: "d"})
	got = got[:0]
	mb.Drain(func(env Envelope[string]) { got = append(got, env.Payload) })
	if len(got) != 1 || got[0] != "d" || mb.Drained() != 4 {
		t.Fatalf("second window drained %v (%d in total), want [d] (4)", got, mb.Drained())
	}
}
