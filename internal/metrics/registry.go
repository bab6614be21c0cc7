package metrics

// This file is the runtime observability layer: named counters, gauges
// and fixed-bucket latency histograms, collected in a Registry that can
// snapshot itself into plain data or render Prometheus text exposition.
// Both transports, the simulator's network and the query plane keep
// their instruments here. The protocol engine (internal/core) holds its
// own as fields of each node and registers them only in the registry a
// reader asks it for. The public peerwindow API and the pwnode debug
// endpoint read the snapshots.
//
// All instruments are lock-free on the write path (single atomic add per
// observation) so instrumentation is safe to leave on in hot paths: the
// engine increments from its serialized protocol path, while transports and
// snapshot readers touch the same instruments from other goroutines.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add folds n occurrences in.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous integer value (a level, a list length).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add shifts the value by d (negative d decrements).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Hist is a fixed-bucket histogram with cumulative-friendly storage:
// bucket i counts observations v <= Bounds[i]; one extra bucket counts
// the overflow (v > last bound). Sum and Count track the exact total so
// means — and, in tests, single observations — are recoverable. The
// buckets are stored inline, so a Hist held by value (Init) costs no
// allocation.
type Hist struct {
	bounds []float64
	counts [maxBounds + 1]atomic.Uint64 // counts[len(bounds)] is the overflow
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// maxBounds is the most bounds a histogram takes.
const maxBounds = 15

// newHist builds a histogram over a copy of bounds.
func newHist(bounds []float64) *Hist {
	h := new(Hist)
	h.Init(append([]float64(nil), bounds...))
	return h
}

// Init readies a zero Hist held by value over strictly increasing upper
// bounds, at most fifteen of them. The histogram keeps bounds, which must
// not change afterwards.
func (h *Hist) Init(bounds []float64) {
	if len(bounds) == 0 || len(bounds) > maxBounds {
		panic(fmt.Sprintf("metrics: histogram needs 1 to %d bounds, not %d", maxBounds, len(bounds)))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram bounds must be strictly increasing")
		}
	}
	h.bounds = bounds
}

// Observe folds one observation in.
func (h *Hist) Observe(v float64) {
	// Linear scan: bucket lists here are short (≤ ~12) and the branch
	// predictor does better than a binary search at that size.
	i := len(h.bounds)
	for j, b := range h.bounds {
		if v <= b {
			i = j
			break
		}
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Hist) Count() uint64 { return h.count.Load() }

// Sum returns the exact sum of all observations.
func (h *Hist) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// DefaultLatencyBounds suits virtual-time protocol latencies in seconds:
// sub-second message flight up to multi-minute detection and refresh
// periods.
func DefaultLatencyBounds() []float64 {
	return []float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 15, 30, 60, 120, 300}
}

// Registry is an ordered collection of named instruments. Get-or-create
// accessors make wiring idempotent; names are dotted paths
// ("probe.failures") that render as underscores in Prometheus form.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Hist
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Hist),
	}
}

// Counter returns the named counter, creating it on first use. Creating
// one under a name ValidName rejects panics.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	mustBeValid(name)
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use (a bad name
// panics, as for Counter).
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	mustBeValid(name)
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use (later calls ignore bounds; a bad name panics, as
// for Counter).
func (r *Registry) Histogram(name string, bounds []float64) *Hist {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	mustBeValid(name)
	h := newHist(bounds)
	r.hists[name] = h
	return h
}

// AddCounter registers c, which lives elsewhere, under name, so the
// registry reads and hands out that counter (a bad name panics).
func (r *Registry) AddCounter(name string, c *Counter) {
	mustBeValid(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters[name] = c
}

// AddHistogram registers h under name, as AddCounter does a counter.
func (r *Registry) AddHistogram(name string, h *Hist) {
	mustBeValid(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hists[name] = h
}

// HistSnapshot is one histogram's state at snapshot time.
type HistSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra entry for
	// observations above the last bound.
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// Snapshot is a point-in-time copy of a registry (or a merge of
// several). The maps are owned by the caller.
type Snapshot struct {
	Counters   map[string]uint64
	Gauges     map[string]int64
	Histograms map[string]HistSnapshot
}

// Snapshot copies every instrument's current value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// Snapshot copies the histogram's current state.
func (h *Hist) Snapshot() HistSnapshot {
	hs := HistSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.bounds)+1),
		Count:  h.Count(),
		Sum:    h.Sum(),
	}
	for i := range hs.Counts {
		hs.Counts[i] = h.counts[i].Load()
	}
	return hs
}

// Merge folds another snapshot into this one: counters and histogram
// buckets add, gauges add too (callers merging per-peer snapshots want
// totals). Histograms with mismatched bounds keep the receiver's shape
// and only fold Count and Sum.
func (s *Snapshot) Merge(o Snapshot) {
	if s.Counters == nil {
		s.Counters = make(map[string]uint64)
	}
	if s.Gauges == nil {
		s.Gauges = make(map[string]int64)
	}
	if s.Histograms == nil {
		s.Histograms = make(map[string]HistSnapshot)
	}
	for name, v := range o.Counters {
		s.Counters[name] += v
	}
	for name, v := range o.Gauges {
		s.Gauges[name] += v
	}
	for name, oh := range o.Histograms {
		sh, ok := s.Histograms[name]
		if !ok {
			cp := HistSnapshot{
				Bounds: append([]float64(nil), oh.Bounds...),
				Counts: append([]uint64(nil), oh.Counts...),
				Count:  oh.Count,
				Sum:    oh.Sum,
			}
			s.Histograms[name] = cp
			continue
		}
		sameShape := len(sh.Bounds) == len(oh.Bounds)
		if sameShape {
			for i := range sh.Bounds {
				if sh.Bounds[i] != oh.Bounds[i] {
					sameShape = false
					break
				}
			}
		}
		if sameShape {
			for i := range sh.Counts {
				sh.Counts[i] += oh.Counts[i]
			}
		}
		sh.Count += oh.Count
		sh.Sum += oh.Sum
		s.Histograms[name] = sh
	}
}

// promName converts a dotted instrument name to Prometheus form under the
// pw namespace: "probe.failures" -> "pw_probe_failures".
func promName(name string) string {
	return "pw_" + strings.NewReplacer(".", "_", "-", "_").Replace(name)
}

// promFloat renders a float the way Prometheus text exposition expects.
func promFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders the snapshot in Prometheus text exposition
// format, every metric name prefixed with "pw_". Output is sorted by name
// so scrapes diff cleanly.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, s.Counters[name]); err != nil {
			return err
		}
	}
	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", pn, pn, s.Gauges[name]); err != nil {
			return err
		}
	}
	names = names[:0]
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Histograms[name]
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", pn); err != nil {
			return err
		}
		// Prometheus buckets are cumulative with le labels.
		var cum uint64
		for i, b := range h.Bounds {
			cum += h.Counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", pn, promFloat(b), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", pn, h.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", pn, promFloat(h.Sum), pn, h.Count); err != nil {
			return err
		}
	}
	return nil
}
