package metrics

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b")
	if c2 := r.Counter("a.b"); c2 != c {
		t.Fatal("Counter not idempotent")
	}
	g := r.Gauge("g")
	if g2 := r.Gauge("g"); g2 != g {
		t.Fatal("Gauge not idempotent")
	}
	h := r.Histogram("h", []float64{1, 2})
	if h2 := r.Histogram("h", []float64{9}); h2 != h {
		t.Fatal("Histogram not idempotent")
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d", got)
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d", got)
	}
}

func TestHistBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 5, 10})
	for _, v := range []float64{0.5, 1, 3, 7, 100} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["lat"]
	want := []uint64{2, 1, 1, 1} // <=1: {0.5, 1}; <=5: {3}; <=10: {7}; over: {100}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d want %d (%v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 5 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Sum != 111.5 {
		t.Fatalf("sum = %g", s.Sum)
	}
}

func TestHistConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{10})
	var wg sync.WaitGroup
	const goroutines, per = 8, 1000
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*per {
		t.Fatalf("count = %d", got)
	}
	if got := h.Sum(); got != float64(goroutines*per) {
		t.Fatalf("sum = %g", got)
	}
}

func TestSnapshotMerge(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("c").Add(2)
	b.Counter("c").Add(3)
	b.Counter("only_b").Inc()
	a.Gauge("g").Set(1)
	b.Gauge("g").Set(2)
	a.Histogram("h", []float64{1, 2}).Observe(0.5)
	b.Histogram("h", []float64{1, 2}).Observe(1.5)

	s := a.Snapshot()
	s.Merge(b.Snapshot())
	if s.Counters["c"] != 5 || s.Counters["only_b"] != 1 {
		t.Fatalf("counters = %v", s.Counters)
	}
	if s.Gauges["g"] != 3 {
		t.Fatalf("gauges = %v", s.Gauges)
	}
	h := s.Histograms["h"]
	if h.Count != 2 || h.Sum != 2 || h.Counts[0] != 1 || h.Counts[1] != 1 {
		t.Fatalf("hist = %+v", h)
	}
}

func TestRegistryRejectsBadNames(t *testing.T) {
	r := NewRegistry()
	for kind, mint := range map[string]func(string){
		"counter":   func(n string) { r.Counter(n) },
		"gauge":     func(n string) { r.Gauge(n) },
		"histogram": func(n string) { r.Histogram(n, []float64{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with a malformed name did not panic", kind)
				}
			}()
			mint("Probe Rounds")
		}()
	}
	if s := r.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatalf("a rejected name was registered: %+v", s)
	}

	// The check runs only when an instrument is created: fetching one
	// that exists does not look at its name.
	c, g, h := &Counter{}, &Gauge{}, newHist([]float64{1})
	r.counters["Not Checked"], r.gauges["Not Checked"], r.hists["Not Checked"] = c, g, h
	if r.Counter("Not Checked") != c || r.Gauge("Not Checked") != g || r.Histogram("Not Checked", nil) != h {
		t.Fatal("re-fetch did not return the existing instrument")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("probe.failures").Add(3)
	r.Gauge("peer.level").Set(2)
	h := r.Histogram("probe.detect_latency_seconds", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(15)

	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE pw_probe_failures counter",
		"pw_probe_failures 3",
		"pw_peer_level 2",
		`pw_probe_detect_latency_seconds_bucket{le="1"} 1`,
		`pw_probe_detect_latency_seconds_bucket{le="10"} 1`,
		`pw_probe_detect_latency_seconds_bucket{le="+Inf"} 2`,
		"pw_probe_detect_latency_seconds_sum 15.5",
		"pw_probe_detect_latency_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}
