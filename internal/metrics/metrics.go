// Package metrics holds the measurement machinery shared by the protocol
// and the experiment harness: streaming aggregates, per-level breakdowns
// (the x-axis of most of the paper's figures), a windowed bandwidth meter
// (what a node uses to decide level shifts), and plain-text table/series
// rendering for the figure reproductions. It also holds the runtime
// instruments — counters and fixed-bucket histograms that their owners
// keep as fields — and the snapshots, deltas and Prometheus text those
// owners' readings are exchanged as (registry.go, diff.go).
package metrics

import (
	"fmt"
	"sort"

	"peerwindow/internal/des"
)

// Agg is a streaming aggregate: count, running mean, min and max. The
// zero value is ready to use.
type Agg struct {
	n          int64
	mean       float64
	min, max   float64
	hasExtrema bool
}

// Add folds one observation in.
func (a *Agg) Add(v float64) {
	a.n++
	d := v - a.mean
	a.mean += d / float64(a.n)
	if !a.hasExtrema || v < a.min {
		a.min = v
	}
	if !a.hasExtrema || v > a.max {
		a.max = v
	}
	a.hasExtrema = true
}

// Merge folds another aggregate in (parallel reduction).
func (a *Agg) Merge(b Agg) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = b
		return
	}
	n := a.n + b.n
	d := b.mean - a.mean
	a.mean += d * float64(b.n) / float64(n)
	a.n = n
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
}

// N returns the observation count.
func (a Agg) N() int64 { return a.n }

// Mean returns the running mean, or 0 with no observations.
func (a Agg) Mean() float64 { return a.mean }

// Min returns the smallest observation, or 0 with none.
func (a Agg) Min() float64 { return a.min }

// Max returns the largest observation, or 0 with none.
func (a Agg) Max() float64 { return a.max }

// PerLevel keys aggregates by PeerWindow level, growing on demand. The
// zero value is ready to use.
type PerLevel struct {
	aggs []Agg
}

// Add folds an observation for the given level. Negative levels panic.
func (p *PerLevel) Add(level int, v float64) {
	if level < 0 {
		panic(fmt.Sprintf("metrics: negative level %d", level))
	}
	for len(p.aggs) <= level {
		p.aggs = append(p.aggs, Agg{})
	}
	p.aggs[level].Add(v)
}

// Level returns the aggregate for one level (zero aggregate if unseen).
func (p *PerLevel) Level(level int) Agg {
	if level < 0 || level >= len(p.aggs) {
		return Agg{}
	}
	return p.aggs[level]
}

// Overall merges every level into one aggregate.
func (p *PerLevel) Overall() Agg {
	var out Agg
	for i := range p.aggs {
		out.Merge(p.aggs[i])
	}
	return out
}

// meterSlots is how many sub-intervals a Meter's window is split into
// (more slots = smoother decay).
const meterSlots = 8

// Meter measures a node's bandwidth cost over a sliding window of virtual
// time — the "dynamically measured" W_T of §4.3 that drives level
// estimation and the autonomic level shifting of §2. It keeps per-slot
// bit counts and reports the windowed rate.
type Meter struct {
	window des.Time
	slot   des.Time
	bits   [meterSlots]float64
	// cur is the index of the slot containing 'upto'.
	cur  int
	upto des.Time
}

// NewMeter builds a meter over the given window, to be held by value.
func NewMeter(window des.Time) Meter {
	if window <= 0 {
		panic("metrics: meter needs a positive window")
	}
	return Meter{window: window, slot: window / meterSlots}
}

// advance rotates slots so that 'now' falls inside the current one.
func (m *Meter) advance(now des.Time) {
	if now <= m.upto {
		return
	}
	steps := int((now - m.upto) / m.slot)
	if steps > meterSlots {
		steps = meterSlots
	}
	for i := 0; i < steps; i++ {
		m.cur = (m.cur + 1) % meterSlots
		m.bits[m.cur] = 0
	}
	// Snap upto forward in whole slots, then remember 'now' is inside.
	m.upto += des.Time(steps) * m.slot
	if now > m.upto {
		// Gap larger than the window; jump.
		m.upto = now
	}
}

// Add records bits transferred at virtual time now. Time must not go
// backwards.
func (m *Meter) Add(now des.Time, bitCount float64) {
	m.advance(now)
	m.bits[m.cur] += bitCount
}

// Rate returns the average bit/s over the window ending at now.
func (m *Meter) Rate(now des.Time) float64 {
	m.advance(now)
	var sum float64
	for _, b := range m.bits {
		sum += b
	}
	return sum / m.window.Seconds()
}

// Reservoir keeps a bounded uniform sample of a stream (Vitter's
// algorithm R) and answers quantile queries over it — used for latency
// and delay distributions where exact order statistics over millions of
// observations would be wasteful.
type Reservoir struct {
	cap    int
	seen   int64
	values []float64
	// next draws replacement indices; a linear-congruential step is
	// plenty for sampling and keeps the zero-dependency promise here.
	state uint64
}

// NewReservoir builds a reservoir holding up to capacity observations.
func NewReservoir(capacity int, seed uint64) *Reservoir {
	if capacity <= 0 {
		panic("metrics: reservoir capacity must be positive")
	}
	return &Reservoir{cap: capacity, state: seed*6364136223846793005 + 1442695040888963407}
}

func (r *Reservoir) rand() uint64 {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return r.state >> 11
}

// Add folds one observation into the sample.
func (r *Reservoir) Add(v float64) {
	r.seen++
	if len(r.values) < r.cap {
		r.values = append(r.values, v)
		return
	}
	if j := r.rand() % uint64(r.seen); j < uint64(r.cap) {
		r.values[j] = v
	}
}

// N returns how many observations were offered.
func (r *Reservoir) N() int64 { return r.seen }

// Quantile returns the q-quantile (0..1) of the sample, or 0 when empty.
func (r *Reservoir) Quantile(q float64) float64 {
	if len(r.values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), r.values...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}
