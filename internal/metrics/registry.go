package metrics

// This file is the runtime observability layer: counters and
// fixed-bucket latency histograms, the snapshots their owners take of
// them, and the Prometheus text exposition of a snapshot. Every owner —
// a core node, a query store, a transport link, the simulator's network,
// a telemetry collector — holds its instruments as fields and builds its
// snapshot over them, one line per instrument; a gauge is not stored but
// read from the owner's state when the snapshot is taken. The public
// peerwindow API and the pwnode debug endpoint read the snapshots.
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

// Registry is empty: every owner holds its instruments as fields and
// takes its own snapshot. It survives, as the type of query.NewStore's
// parameter, only because the benchmark module (cmd/pwbench) calls
// NewStore(nil); both go when that module stops doing so.
type Registry struct{}

// HistSnapshot is one histogram's state at snapshot time.
type HistSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra entry for
	// observations above the last bound.
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// Snapshot is a point-in-time copy of one owner's instruments (or a
// merge of several owners'). The maps are owned by the caller.
type Snapshot struct {
	Counters   map[string]uint64
	Gauges     map[string]int64
	Histograms map[string]HistSnapshot
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
	for _, name := range SortedNames(s.Counters) {
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range SortedNames(s.Gauges) {
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", pn, pn, s.Gauges[name]); err != nil {
			return err
		}
	}
	for _, name := range SortedNames(s.Histograms) {
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

// SortedNames returns m's names in ascending order, the order in which
// every exposition and frame lists instruments, so output is
// deterministic.
func SortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
