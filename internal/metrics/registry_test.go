package metrics

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d", got)
	}
}

func TestHistBuckets(t *testing.T) {
	h := newHist(1, 5, 10)
	for _, v := range []float64{0.5, 1, 3, 7, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
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
	h := newHist(10)
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
	ha, hb := newHist(1, 2), newHist(1, 2)
	ha.Observe(0.5)
	hb.Observe(1.5)
	s := Snapshot{
		Counters:   map[string]uint64{"c": 2},
		Gauges:     map[string]int64{"g": 1},
		Histograms: map[string]HistSnapshot{"h": ha.Snapshot()},
	}
	s.Merge(Snapshot{
		Counters:   map[string]uint64{"c": 3, "only_b": 1},
		Gauges:     map[string]int64{"g": 2},
		Histograms: map[string]HistSnapshot{"h": hb.Snapshot()},
	})
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

func TestSortedNames(t *testing.T) {
	got := SortedNames(map[string]int64{"net.send.ack": 1, "net.hosts": 2, "net.send_bytes": 3})
	if want := []string{"net.hosts", "net.send.ack", "net.send_bytes"}; !slices.Equal(got, want) {
		t.Fatalf("SortedNames = %v, want %v", got, want)
	}
}

func TestWritePrometheus(t *testing.T) {
	h := newHist(1, 10)
	h.Observe(0.5)
	h.Observe(15)
	s := Snapshot{
		Counters:   map[string]uint64{"probe.failures": 3},
		Gauges:     map[string]int64{"peer.level": 2},
		Histograms: map[string]HistSnapshot{"probe.detect_latency_seconds": h.Snapshot()},
	}

	var buf bytes.Buffer
	if err := s.WritePrometheus(&buf); err != nil {
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
