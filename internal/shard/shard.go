// Package shard is the one place in the simulation stack where
// goroutines are allowed. Everything below it — internal/core,
// internal/des, internal/sim event logic — stays a pure single-threaded
// function of its seed; everything that needs OS-level parallelism
// (driving several per-shard engines at once, or fanning independent
// runs across cores) routes through here, where the synchronization
// discipline is concentrated and auditable. The nodeterminism analyzer
// enforces the split: it forbids `go` statements in the deterministic
// packages and sanctions them only in this one.
//
// The Driver implements conservative time-window synchronization, the
// classic parallel-DES recipe (Chandy–Misra–Bryant style lookahead,
// specialized to a global window barrier): no cross-shard effect can
// take hold sooner than the lookahead — the topology's hard latency
// floor — after the instant it was issued, so every shard may execute
// all events strictly before
//
//	horizon = min over shards of (next pending event time) + lookahead
//
// without ever needing an event another shard has yet to produce.
// Between windows a single-threaded barrier runs: shards exchange the
// cross-shard work they produced (in shard order, so the combined order
// is deterministic), and the next horizon is computed. Workers only ever
// touch their own shards during a window, and the barrier only runs
// while workers are parked, so the run is bit-reproducible for any
// worker count — parallelism changes wall-clock time, never the
// schedule.
package shard

import (
	"fmt"
	"runtime"
	"sync"

	"peerwindow/internal/des"
)

// Shard is one partition of a simulation: a des.Engine (which satisfies
// this interface directly) or any wrapper that can report its next event
// time and execute a bounded window. A shard that also has
// Executed() uint64, as des.Engine does, feeds the driver's event and
// critical-path counts (see Stats).
type Shard interface {
	// NextAt returns the time of the earliest pending event; ok is false
	// when the shard is idle.
	NextAt() (t des.Time, ok bool)
	// RunWindow executes all events strictly before limit and advances
	// the shard's clock to limit.
	RunWindow(limit des.Time)
}

// Config parameterises a Driver.
type Config struct {
	// Lookahead is the conservative synchronization slack: the minimum
	// virtual delay between issuing a cross-shard effect and the instant
	// it can take hold (the topology latency floor, or one multicast
	// step). Must be positive — a zero lookahead admits no parallelism.
	Lookahead des.Time
	// Workers is the number of goroutines driving shards; <= 0 means
	// GOMAXPROCS. One worker degenerates to a serial loop with no
	// goroutines at all, which is also the fallback for a single shard.
	Workers int
	// Exchange, when non-nil, runs single-threaded at every barrier
	// (after all shards reached the horizon, before the next window) and
	// at end of run. It is where mailboxes are drained, global state
	// snapshots updated, and deltas applied.
	Exchange func(horizon des.Time)
}

// Stats is what a Driver has counted over its Runs so far. All three are
// pure functions of the simulation (never of the worker count), counted
// once per window at the barrier.
type Stats struct {
	// Windows is the number of windows executed.
	Windows uint64
	// Events is the number of events executed across all shards; it
	// stays 0 when some shard does not report Executed.
	Events uint64
	// CriticalPath is the sum over windows of the busiest shard's event
	// count: the events one worker per shard would still run back to
	// back.
	CriticalPath uint64
}

// MaxSpeedup returns Events / CriticalPath, the host-independent upper
// bound on parallel speed-up at this shard count: what lookahead and
// load skew leave, before any scheduling or memory cost. It is 0 until
// an event has been counted.
func (s Stats) MaxSpeedup() float64 {
	if s.CriticalPath == 0 {
		return 0
	}
	return float64(s.Events) / float64(s.CriticalPath)
}

// eventCounter is the optional Shard method behind Stats.Events and
// Stats.CriticalPath; des.Engine has it.
type eventCounter interface {
	Executed() uint64
}

// Driver coordinates a fixed set of shards through conservative time
// windows. It is not safe for concurrent use; one Run at a time.
type Driver struct {
	cfg    Config
	shards []Shard

	horizon des.Time // current window bound, set by the coordinator before workers start

	counters []eventCounter // nil unless every shard counts its events
	executed []uint64       // per shard, as of the last barrier
	stats    Stats
}

// NewDriver builds a driver over the given shards. The shard slice is
// retained; its order defines the deterministic barrier order.
func NewDriver(cfg Config, shards ...Shard) *Driver {
	if cfg.Lookahead <= 0 {
		panic(fmt.Sprintf("shard: non-positive lookahead %v", cfg.Lookahead))
	}
	if len(shards) == 0 {
		panic("shard: no shards")
	}
	d := &Driver{cfg: cfg, shards: shards}
	counters := make([]eventCounter, len(shards))
	for i, s := range shards {
		c, ok := s.(eventCounter)
		if !ok {
			return d
		}
		counters[i] = c
	}
	d.counters = counters
	d.executed = make([]uint64, len(shards))
	return d
}

// Stats returns the counts accumulated over every Run so far.
func (d *Driver) Stats() Stats { return d.stats }

// countWindow folds the window that just ended into the stats. It runs
// on the coordinator while the workers are parked.
func (d *Driver) countWindow() {
	d.stats.Windows++
	var busiest uint64
	for i, c := range d.counters {
		now := c.Executed()
		n := now - d.executed[i]
		d.executed[i] = now
		d.stats.Events += n
		if n > busiest {
			busiest = n
		}
	}
	d.stats.CriticalPath += busiest
}

// nextEventAt returns the earliest pending event time across all shards;
// ok is false when every shard is idle.
func (d *Driver) nextEventAt() (des.Time, bool) {
	min, any := des.MaxTime, false
	for _, s := range d.shards {
		if t, ok := s.NextAt(); ok {
			any = true
			if t < min {
				min = t
			}
		}
	}
	return min, any
}

// Run advances the whole sharded simulation to the absolute virtual time
// `until`: repeated windows of parallel intra-shard execution separated
// by single-threaded exchange barriers, then a final clock advance so
// every shard ends exactly at `until`.
func (d *Driver) Run(until des.Time) {
	workers := d.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(d.shards) {
		workers = len(d.shards)
	}
	var start []chan struct{}
	var done chan struct{}
	if workers > 1 {
		// Persistent workers for this Run; shard i is always driven by
		// worker i%workers, so a shard's events execute on one goroutine
		// per Run and the assignment never depends on timing.
		start = make([]chan struct{}, workers)
		done = make(chan struct{}, workers)
		for w := 0; w < workers; w++ {
			start[w] = make(chan struct{}, 1)
			go func(w int) {
				for range start[w] {
					for i := w; i < len(d.shards); i += workers {
						d.shards[i].RunWindow(d.horizon)
					}
					done <- struct{}{}
				}
			}(w)
		}
		defer func() {
			for _, c := range start {
				close(c)
			}
		}()
	}

	// Events a shard ran outside the driver are not this driver's.
	for i, c := range d.counters {
		d.executed[i] = c.Executed()
	}
	lastBarrier := des.Time(-1)
	for {
		t, ok := d.nextEventAt()
		if !ok || t >= until {
			break
		}
		h := t + d.cfg.Lookahead
		if h > until {
			h = until
		}
		d.horizon = h
		lastBarrier = h
		if workers > 1 {
			for _, c := range start {
				c <- struct{}{}
			}
			for range start {
				<-done
			}
		} else {
			for _, s := range d.shards {
				s.RunWindow(h)
			}
		}
		d.countWindow()
		if d.cfg.Exchange != nil {
			d.cfg.Exchange(h)
		}
	}
	// No pending event lies before `until` any more: advance every clock
	// to the end of the run (serial; nothing executes) and run one last
	// barrier — unless the final window already landed exactly there.
	if lastBarrier == until {
		return
	}
	for _, s := range d.shards {
		s.RunWindow(until)
	}
	if d.cfg.Exchange != nil {
		d.cfg.Exchange(until)
	}
}

// RunParallel executes n independent tasks on up to workers goroutines
// (defaulting to GOMAXPROCS when workers <= 0). Each task builds and runs
// its own des.Engine; this is the ONSP-style cluster parallelism
// translated to Go — determinism inside a run, parallelism across runs.
func RunParallel(n, workers int, task func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	next := make(chan int)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				task(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
