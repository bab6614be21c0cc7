package metrics

import (
	"math"
	"strings"
	"testing"

	"peerwindow/internal/des"
)

func TestAggBasics(t *testing.T) {
	var a Agg
	if a.N() != 0 || a.Mean() != 0 || a.Min() != 0 || a.Max() != 0 {
		t.Fatal("zero aggregate not zero")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(v)
	}
	if a.N() != 8 {
		t.Fatalf("N = %d", a.N())
	}
	if a.Mean() != 5 {
		t.Fatalf("Mean = %g", a.Mean())
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Fatalf("extrema = %g,%g", a.Min(), a.Max())
	}
	// The running mean stays exact through a non-monotone stream.
	a.Add(-40)
	if a.N() != 9 || a.Mean() != 0 || a.Min() != -40 || a.Max() != 9 {
		t.Fatalf("after -40: N=%d mean=%g extrema=%g,%g", a.N(), a.Mean(), a.Min(), a.Max())
	}
}

func TestAggNegativeValues(t *testing.T) {
	var a Agg
	a.Add(-5)
	a.Add(5)
	if a.Min() != -5 || a.Max() != 5 || a.Mean() != 0 {
		t.Fatalf("negative handling broken: %+v", a)
	}
}

func TestAggMergeMatchesSequential(t *testing.T) {
	var whole, left, right Agg
	for i := 0; i < 100; i++ {
		v := float64(i*i%37) - 11
		whole.Add(v)
		if i%2 == 0 {
			left.Add(v)
		} else {
			right.Add(v)
		}
	}
	// The minimum lands in left and the maximum in right, so the merge
	// must take each extremum from a different side.
	left.Add(-50)
	right.Add(60)
	whole.Add(-50)
	whole.Add(60)
	left.Merge(right)
	sameAgg(t, "merged halves", left, whole)
}

// sameAgg requires got and want to agree on N, Mean, Min and Max.
func sameAgg(t *testing.T, what string, got, want Agg) {
	t.Helper()
	if got.N() != want.N() || math.Abs(got.Mean()-want.Mean()) > 1e-9 ||
		got.Min() != want.Min() || got.Max() != want.Max() {
		t.Fatalf("%s: N=%d mean=%g extrema=%g,%g, want N=%d mean=%g extrema=%g,%g", what,
			got.N(), got.Mean(), got.Min(), got.Max(), want.N(), want.Mean(), want.Min(), want.Max())
	}
}

func TestAggMergeEmptyCases(t *testing.T) {
	var a, b Agg
	a.Merge(b) // empty into empty
	sameAgg(t, "empty into empty", a, Agg{})
	var whole Agg
	for _, v := range []float64{3, -4, 7} {
		b.Add(v)
		whole.Add(v)
	}
	a.Merge(b) // non-empty into empty
	sameAgg(t, "non-empty into empty", a, whole)
	var c Agg
	a.Merge(c) // empty into non-empty
	sameAgg(t, "empty into non-empty", a, whole)
}

func TestPerLevel(t *testing.T) {
	var p PerLevel
	if p.Overall().N() != 0 {
		t.Fatal("empty PerLevel should hold no observations")
	}
	p.Add(0, 1)
	p.Add(0, 3)
	p.Add(3, 10)
	if p.Level(0).Mean() != 2 {
		t.Fatalf("level 0 mean = %g", p.Level(0).Mean())
	}
	if p.Level(1).N() != 0 {
		t.Fatal("unseen level should be empty")
	}
	if p.Level(-1).N() != 0 || p.Level(99).N() != 0 {
		t.Fatal("out-of-range Level should return empty aggregate")
	}
	if p.Level(3).N() != 1 || p.Overall().N() != 3 {
		t.Fatalf("level 3 holds %d, all levels %d", p.Level(3).N(), p.Overall().N())
	}
	if math.Abs(p.Overall().Mean()-(1.0+3+10)/3) > 1e-12 {
		t.Fatalf("Overall mean = %g", p.Overall().Mean())
	}
}

func TestPerLevelNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative level did not panic")
		}
	}()
	var p PerLevel
	p.Add(-1, 0)
}

// The histogram's buckets are upper-inclusive: a value on a bound counts
// in that bound's bucket, everything at or below the first bound
// (negatives included) in bucket 0, everything above the last in the
// overflow bucket.
func TestHistogram(t *testing.T) {
	h := newHist(0, 10, 100, 1000)
	for _, v := range []float64{-1, 0, 5, 9.99, 10, 50, 999, 1000, 5000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []uint64{2, 3, 1, 2, 1} // {-1, 0}, {5, 9.99, 10}, {50}, {999, 1000}, {5000}
	if len(s.Counts) != len(want) {
		t.Fatalf("%d buckets, want %d", len(s.Counts), len(want))
	}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d want %d (%v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if h.Count() != 9 {
		t.Fatalf("Count = %d", h.Count())
	}
}

func TestHistogramValidation(t *testing.T) {
	for _, bounds := range [][]float64{{}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bounds %v did not panic", bounds)
				}
			}()
			new(Hist).Init(bounds)
		}()
	}
}

func TestMeterSteadyRate(t *testing.T) {
	m := NewMeter(8 * des.Second)
	// 1000 bits every second for 30 s: steady 1000 bit/s.
	for s := 1; s <= 30; s++ {
		m.Add(des.Time(s)*des.Second, 1000)
	}
	got := m.Rate(30 * des.Second)
	if math.Abs(got-1000) > 150 {
		t.Fatalf("steady rate = %g want ~1000", got)
	}
}

func TestMeterDecaysToZero(t *testing.T) {
	m := NewMeter(8 * des.Second)
	m.Add(des.Second, 5000)
	if r := m.Rate(2 * des.Second); r <= 0 {
		t.Fatalf("fresh traffic invisible: %g", r)
	}
	if r := m.Rate(100 * des.Second); r != 0 {
		t.Fatalf("rate did not decay to zero: %g", r)
	}
}

func TestMeterLargeGap(t *testing.T) {
	m := NewMeter(8 * des.Second)
	m.Add(des.Second, 1e6)
	// A gap of several windows must fully clear the history.
	m.Add(1000*des.Second, 100)
	r := m.Rate(1000 * des.Second)
	if r > 100 {
		t.Fatalf("old traffic leaked through gap: %g", r)
	}
}

func TestMeterValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid meter did not panic")
		}
	}()
	NewMeter(0)
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Figure X", "level", "nodes", "share")
	tb.AddRow(0, 55000, 0.55)
	tb.AddRow(1, 30000, 0.30123)
	tb.AddRow("total", 85000, 1.0)
	out := tb.Render()
	for _, want := range []string{"Figure X", "level", "55000", "0.30", "total"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + header + rule + 3 rows
	if len(lines) != 6 {
		t.Fatalf("render has %d lines:\n%s", len(lines), out)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		5:       "5",
		-3:      "-3",
		0.005:   "0.005",
		1234.56: "1234.56",
	}
	for v, want := range cases {
		if got := formatFloat(v); got != want {
			t.Errorf("formatFloat(%g) = %q want %q", v, got, want)
		}
	}
}

func TestReservoirExactBelowCapacity(t *testing.T) {
	r := NewReservoir(100, 1)
	for i := 1; i <= 9; i++ {
		r.Add(float64(i))
	}
	if r.N() != 9 {
		t.Fatalf("N = %d", r.N())
	}
	if got := r.Quantile(0); got != 1 {
		t.Fatalf("min = %g", got)
	}
	if got := r.Quantile(1); got != 9 {
		t.Fatalf("max = %g", got)
	}
	if got := r.Quantile(0.5); got != 5 {
		t.Fatalf("median = %g", got)
	}
}

func TestReservoirSamplesUniformly(t *testing.T) {
	// Stream 0..9999 through a 500-slot reservoir; the sampled median
	// should approximate the true median.
	r := NewReservoir(500, 2)
	for i := 0; i < 10000; i++ {
		r.Add(float64(i))
	}
	med := r.Quantile(0.5)
	if med < 3500 || med > 6500 {
		t.Fatalf("sampled median %g far from 5000", med)
	}
	if r.N() != 10000 {
		t.Fatalf("N = %d", r.N())
	}
}

func TestReservoirEmptyAndValidation(t *testing.T) {
	r := NewReservoir(4, 3)
	if r.Quantile(0.5) != 0 {
		t.Fatal("empty reservoir should answer 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity did not panic")
		}
	}()
	NewReservoir(0, 1)
}
