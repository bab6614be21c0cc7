package metrics

import (
	"reflect"
	"testing"
)

// newHist readies a histogram over bounds.
func newHist(bounds ...float64) *Hist {
	h := new(Hist)
	h.Init(bounds)
	return h
}

// histSnap snapshots named histograms.
func histSnap(hs map[string]*Hist) Snapshot {
	s := Snapshot{Histograms: map[string]HistSnapshot{}}
	for name, h := range hs {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

func TestDiffCounters(t *testing.T) {
	var a, b Counter
	snap := func() Snapshot {
		return Snapshot{Counters: map[string]uint64{"a.count": a.Value(), "b.count": b.Value()}}
	}
	a.Add(3)
	prev := snap()
	a.Add(2)
	b.Add(7)
	cur := snap()

	d, regressed := cur.Diff(prev)
	if len(regressed) != 0 {
		t.Fatalf("unexpected regressions %v", regressed)
	}
	want := map[string]uint64{"a.count": 2, "b.count": 7}
	if !reflect.DeepEqual(d.Counters, want) {
		t.Fatalf("counter deltas %v want %v", d.Counters, want)
	}
	// Unchanged counters are omitted entirely.
	d2, _ := cur.Diff(cur)
	if len(d2.Counters) != 0 {
		t.Fatalf("self-diff has counter deltas %v", d2.Counters)
	}
}

func TestDiffCounterRegression(t *testing.T) {
	prev := Snapshot{Counters: map[string]uint64{"a.count": 10, "b.count": 4}}
	cur := Snapshot{Counters: map[string]uint64{"a.count": 3, "b.count": 9}}
	d, regressed := cur.Diff(prev)
	if !reflect.DeepEqual(regressed, []string{"a.count"}) {
		t.Fatalf("regressed %v want [a.count]", regressed)
	}
	// The regressed counter resyncs at its full current value.
	if d.Counters["a.count"] != 3 || d.Counters["b.count"] != 5 {
		t.Fatalf("deltas %v", d.Counters)
	}
}

func TestDiffGaugePassthrough(t *testing.T) {
	prev := Snapshot{Gauges: map[string]int64{"g.x": 100, "g.gone": 1}}
	cur := Snapshot{Gauges: map[string]int64{"g.x": -3, "g.new": 8}}
	d, _ := cur.Diff(prev)
	want := map[string]int64{"g.x": -3, "g.new": 8}
	if !reflect.DeepEqual(d.Gauges, want) {
		t.Fatalf("gauges %v want %v", d.Gauges, want)
	}
}

func TestDiffHistogramSubtraction(t *testing.T) {
	h := newHist(1, 2, 4)
	h.Observe(0.5)
	h.Observe(3)
	prev := histSnap(map[string]*Hist{"h.lat": h})
	h.Observe(1.5)
	h.Observe(9) // overflow bucket
	cur := histSnap(map[string]*Hist{"h.lat": h})

	d, regressed := cur.Diff(prev)
	if len(regressed) != 0 {
		t.Fatalf("unexpected regressions %v", regressed)
	}
	dh, ok := d.Histograms["h.lat"]
	if !ok {
		t.Fatal("histogram delta missing")
	}
	if dh.Count != 2 {
		t.Fatalf("count delta %d want 2", dh.Count)
	}
	wantCounts := []uint64{0, 1, 0, 1}
	if !reflect.DeepEqual(dh.Counts, wantCounts) {
		t.Fatalf("bucket deltas %v want %v", dh.Counts, wantCounts)
	}
	if dh.Sum != 10.5 {
		t.Fatalf("sum delta %v want 10.5", dh.Sum)
	}
	// An unchanged histogram is omitted.
	d2, _ := cur.Diff(cur)
	if len(d2.Histograms) != 0 {
		t.Fatalf("self-diff has histogram deltas %v", d2.Histograms)
	}
	// Accumulating prev + delta reproduces cur exactly.
	acc := Snapshot{}
	acc.Merge(prev)
	acc.Merge(d)
	if !reflect.DeepEqual(acc.Histograms["h.lat"], cur.Histograms["h.lat"]) {
		t.Fatalf("prev+delta = %+v want %+v", acc.Histograms["h.lat"], cur.Histograms["h.lat"])
	}
}

func TestDiffHistogramBoundsChangeIsRegression(t *testing.T) {
	prev := Snapshot{Histograms: map[string]HistSnapshot{
		"h.lat": {Bounds: []float64{1, 2}, Counts: []uint64{1, 0, 0}, Count: 1, Sum: 0.5},
	}}
	cur := Snapshot{Histograms: map[string]HistSnapshot{
		"h.lat": {Bounds: []float64{1, 2, 4}, Counts: []uint64{2, 0, 0, 0}, Count: 2, Sum: 1},
	}}
	d, regressed := cur.Diff(prev)
	if !reflect.DeepEqual(regressed, []string{"h.lat"}) {
		t.Fatalf("regressed %v want [h.lat]", regressed)
	}
	if !reflect.DeepEqual(d.Histograms["h.lat"], cur.Histograms["h.lat"]) {
		t.Fatalf("bounds-change delta should be the full current state")
	}
}

func TestHistSnapshotQuantile(t *testing.T) {
	h := newHist(1, 2, 4, 8)
	for i := 0; i < 100; i++ {
		h.Observe(1.5) // all in (1,2]
	}
	s := h.Snapshot()
	if q := s.Quantile(0.5); q < 1 || q > 2 {
		t.Fatalf("p50 %v outside containing bucket (1,2]", q)
	}
	// Quantiles are monotone in q.
	if s.Quantile(0.1) > s.Quantile(0.9) {
		t.Fatal("quantile not monotone")
	}
	// Empty histogram.
	if (HistSnapshot{}).Quantile(0.99) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	// Overflow clamps to the last bound.
	h2 := newHist(1, 2)
	for i := 0; i < 10; i++ {
		h2.Observe(100)
	}
	if q := h2.Snapshot().Quantile(0.99); q != 2 {
		t.Fatalf("overflow quantile %v want 2 (clamped)", q)
	}
}
