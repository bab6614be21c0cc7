package shard

import (
	"sync/atomic"
	"testing"

	"peerwindow/internal/des"
)

// A driver over K engines with per-engine periodic events must fire
// every event exactly once, in windows, landing every clock on the
// deadline — for any worker count.
func TestDriverRunCoversAllEvents(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		const k = 4
		engines := make([]*des.Engine, k)
		shards := make([]Shard, k)
		counts := make([]int, k)
		for i := 0; i < k; i++ {
			i := i
			e := des.New()
			engines[i] = e
			var tick func()
			tick = func() {
				counts[i]++
				e.After(10, tick)
			}
			e.After(des.Time(i+1), tick) // staggered phases
			shards[i] = e
		}
		d := NewDriver(Config{Lookahead: 3, Workers: workers}, shards...)
		d.Run(100)
		for i, e := range engines {
			if e.Now() != 100 {
				t.Fatalf("workers=%d: engine %d at %v, want 100", workers, i, e.Now())
			}
			if counts[i] != 10 {
				t.Fatalf("workers=%d: engine %d fired %d ticks, want 10", workers, i, counts[i])
			}
		}
	}
}

// The per-window Exchange hook must see every shard parked exactly on
// the horizon, and horizons must be strictly increasing up to the
// deadline.
func TestDriverExchangeAtBarriers(t *testing.T) {
	const k = 3
	engines := make([]*des.Engine, k)
	shards := make([]Shard, k)
	for i := 0; i < k; i++ {
		e := des.New()
		engines[i] = e
		var tick func()
		tick = func() { e.After(7, tick) }
		e.After(7, tick)
		shards[i] = e
	}
	var horizons []des.Time
	d := NewDriver(Config{
		Lookahead: 2,
		Workers:   2,
		Exchange: func(h des.Time) {
			horizons = append(horizons, h)
			for i, e := range engines {
				if e.Now() != h {
					t.Fatalf("engine %d at %v during exchange at %v", i, e.Now(), h)
				}
			}
		},
	}, shards...)
	d.Run(50)
	if len(horizons) == 0 {
		t.Fatalf("exchange never ran")
	}
	for i := 1; i < len(horizons); i++ {
		if horizons[i] <= horizons[i-1] {
			t.Fatalf("horizons not increasing: %v", horizons)
		}
	}
	if last := horizons[len(horizons)-1]; last != 50 {
		t.Fatalf("final exchange at %v, want the deadline 50", last)
	}
}

// Cross-shard effects injected at barriers must execute: shard 0 mails
// shard 1 a value each window through an Exchange hook, mimicking the
// simulator's mailbox pattern.
func TestDriverCrossShardMailboxPattern(t *testing.T) {
	a, b := des.New(), des.New()
	var mb des.Mailbox[int]
	sent, received := 0, 0
	var tick func()
	tick = func() {
		mb.Put(des.Envelope[int]{Dst: 1, At: a.Now() + 5, Key: uint64(sent)})
		sent++
		a.After(10, tick)
	}
	a.After(10, tick)
	d := NewDriver(Config{
		Lookahead: 5,
		Workers:   2,
		Exchange: func(des.Time) {
			mb.Drain(func(env des.Envelope[int]) {
				b.AtKey(env.At, env.Key, des.EventTag{}, func() { received++ })
			})
		},
	}, a, b)
	d.Run(100)
	if sent == 0 || received != sent-1 {
		// The last send (at t=100's window edge) lands at 105, beyond the
		// deadline: scheduled but not yet executed.
		if received != sent {
			t.Fatalf("sent %d, received %d", sent, received)
		}
	}
	if b.Pending() > 1 {
		t.Fatalf("%d undelivered cross-shard events pending", b.Pending())
	}
}

// Stats must count every window and event, price the critical path at the
// busiest shard of each window, and not depend on the worker count.
func TestDriverStats(t *testing.T) {
	run := func(workers int) Stats {
		const k = 4
		shards := make([]Shard, k)
		for i := 0; i < k; i++ {
			e := des.New()
			// Shard i fires i+1 events every 10 ticks: a 4:1 load skew.
			for j := 0; j <= i; j++ {
				var tick func()
				tick = func() { e.After(10, tick) }
				e.After(10, tick)
			}
			shards[i] = e
		}
		d := NewDriver(Config{Lookahead: 3, Workers: workers}, shards...)
		d.Run(50)
		d.Run(100) // stats accumulate across Runs
		return d.Stats()
	}
	base := run(1)
	// Events fire at t = 10, 20, …, 90 (the one at 100 is not before the
	// deadline): 9 windows of 1+2+3+4 events, the busiest shard running 4.
	if want := (Stats{Windows: 9, Events: 90, CriticalPath: 36}); base != want {
		t.Fatalf("stats = %+v, want %+v", base, want)
	}
	if got := base.MaxSpeedup(); got != 2.5 {
		t.Fatalf("MaxSpeedup = %v, want 2.5", got)
	}
	for _, workers := range []int{2, 8} {
		if got := run(workers); got != base {
			t.Fatalf("workers=%d: stats %+v != workers=1 %+v", workers, got, base)
		}
	}
}

// windowOnly is a Shard without the optional Executed method.
type windowOnly struct{ e *des.Engine }

func (w windowOnly) NextAt() (des.Time, bool) { return w.e.NextAt() }
func (w windowOnly) RunWindow(limit des.Time) { w.e.RunWindow(limit) }

// A shard that cannot count its events leaves the event counts at zero;
// windows are still counted.
func TestDriverStatsWithoutEventCounts(t *testing.T) {
	e := des.New()
	var tick func()
	tick = func() { e.After(10, tick) }
	e.After(10, tick)
	d := NewDriver(Config{Lookahead: 3}, windowOnly{e}, des.New())
	d.Run(35)
	st := d.Stats()
	if st.Windows != 3 || st.Events != 0 || st.CriticalPath != 0 || st.MaxSpeedup() != 0 {
		t.Fatalf("stats = %+v (max speed-up %v), want 3 windows and no event counts", st, st.MaxSpeedup())
	}
}

func TestDriverValidation(t *testing.T) {
	e := des.New()
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"no shards", func() { NewDriver(Config{Lookahead: 1}) }},
		{"zero lookahead", func() { NewDriver(Config{}, e) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}

func TestRunParallelCoversAllTasks(t *testing.T) {
	const n = 100
	var done [n]int32
	RunParallel(n, 7, func(i int) {
		atomic.AddInt32(&done[i], 1)
	})
	for i, d := range done {
		if d != 1 {
			t.Fatalf("task %d ran %d times", i, d)
		}
	}
}

func TestRunParallelDefaults(t *testing.T) {
	var count int32
	RunParallel(5, 0, func(int) { atomic.AddInt32(&count, 1) })
	if count != 5 {
		t.Fatalf("count = %d", count)
	}
	RunParallel(0, 3, func(int) { t.Fatalf("task ran for n=0") })
}
