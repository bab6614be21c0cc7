package xrand

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 identical draws from different seeds", same)
	}
}

func TestReseedResets(t *testing.T) {
	s := New(7)
	first := make([]uint64, 10)
	for i := range first {
		first[i] = s.Uint64()
	}
	s.Reseed(7)
	for i := range first {
		if got := s.Uint64(); got != first[i] {
			t.Fatalf("draw %d after reseed = %d want %d", i, got, first[i])
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	// Two children with different labels from identical parents must
	// differ; same label from same state must agree.
	p1 := New(9)
	p2 := New(9)
	c1 := p1.Split(1)
	c2 := p2.Split(2)
	diff := false
	for i := 0; i < 50; i++ {
		if c1.Uint64() != c2.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("children with different labels produced the same stream")
	}
	p3 := New(9)
	c3 := p3.Split(1)
	c4 := New(9).Split(1)
	for i := 0; i < 50; i++ {
		if c3.Uint64() != c4.Uint64() {
			t.Fatal("same label and state should give identical children")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(4)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %g, want ~0.5", mean)
	}
}

func TestIntnUniform(t *testing.T) {
	s := New(5)
	const buckets, draws = 10, 100000
	var count [buckets]int
	for i := 0; i < draws; i++ {
		v := s.Intn(buckets)
		if v < 0 || v >= buckets {
			t.Fatalf("Intn out of range: %d", v)
		}
		count[v]++
	}
	want := float64(draws) / buckets
	for i, c := range count {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d deviates from %g", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nSmallModulus(t *testing.T) {
	s := New(11)
	for i := 0; i < 1000; i++ {
		if v := s.Uint64n(3); v > 2 {
			t.Fatalf("Uint64n(3) = %d", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(6)
	for n := 0; n < 20; n++ {
		p := s.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	s := New(8)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, x := range xs {
		got += x
	}
	if got != sum {
		t.Fatal("Shuffle lost elements")
	}
}

func TestExpMean(t *testing.T) {
	s := New(10)
	const mean, n = 135.0, 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.Exp(mean)
		if v < 0 {
			t.Fatalf("Exp returned negative %g", v)
		}
		sum += v
	}
	got := sum / n
	if math.Abs(got-mean)/mean > 0.02 {
		t.Fatalf("Exp mean = %g want ~%g", got, mean)
	}
}

func TestExpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestNormalMoments(t *testing.T) {
	s := New(12)
	const n = 200000
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Normal()
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean = %g", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance = %g", variance)
	}
}

func TestLogNormalMedian(t *testing.T) {
	s := New(13)
	const mu, n = 2.0, 100001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = s.LogNormal(mu, 0.5)
	}
	// Median of log-normal is exp(mu); check via counting.
	below := 0
	want := math.Exp(mu)
	for _, v := range vals {
		if v < want {
			below++
		}
	}
	frac := float64(below) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("fraction below exp(mu) = %g want ~0.5", frac)
	}
}

func TestPiecewiseCDFQuantile(t *testing.T) {
	d := NewPiecewiseCDF(
		[]float64{1, 10, 100},
		[]float64{0.1, 0.5, 1.0},
	)
	if got := d.Quantile(0.05); got != 1 {
		t.Fatalf("below first breakpoint should clamp: %g", got)
	}
	if got := d.Quantile(0.5); math.Abs(got-10) > 1e-9 {
		t.Fatalf("Quantile(0.5) = %g want 10", got)
	}
	if got := d.Quantile(1); got != 100 {
		t.Fatalf("Quantile(1) = %g want 100", got)
	}
	// Log-linear midpoint between 10 (0.5) and 100 (1.0).
	mid := d.Quantile(0.75)
	if math.Abs(mid-math.Sqrt(10*100)) > 1e-6 {
		t.Fatalf("log-linear interpolation broken: %g", mid)
	}
}

func TestPiecewiseCDFSampleRange(t *testing.T) {
	d := NewPiecewiseCDF([]float64{2, 20}, []float64{0.3, 1})
	s := New(15)
	for i := 0; i < 10000; i++ {
		v := d.Sample(s)
		if v < 2 || v > 20 {
			t.Fatalf("sample out of range: %g", v)
		}
	}
}

func TestPiecewiseCDFValidation(t *testing.T) {
	cases := []struct {
		name string
		v, c []float64
	}{
		{"mismatched lengths", []float64{1, 2}, []float64{1}},
		{"too short", []float64{1}, []float64{1}},
		{"non-increasing values", []float64{2, 2}, []float64{0.5, 1}},
		{"non-increasing cum", []float64{1, 2}, []float64{0.5, 0.5}},
		{"cum not ending at 1", []float64{1, 2}, []float64{0.5, 0.9}},
		{"non-positive value", []float64{0, 2}, []float64{0.5, 1}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			NewPiecewiseCDF(c.v, c.c)
		}()
	}
}

func TestPiecewiseCDFMean(t *testing.T) {
	// Uniform-in-log between 1 and e: mean of exp(U[0,1]) = e-1.
	d := NewPiecewiseCDF([]float64{1, math.E}, []float64{1e-12, 1})
	got := d.Mean()
	want := math.E - 1
	if math.Abs(got-want)/want > 0.01 {
		t.Fatalf("Mean = %g want %g", got, want)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Uint64()
	}
	_ = sink
}

func BenchmarkExp(b *testing.B) {
	s := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += s.Exp(135)
	}
	_ = sink
}
