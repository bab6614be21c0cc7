package workload

import (
	"math"
	"testing"

	"peerwindow/internal/des"
	"peerwindow/internal/xrand"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mutations := []struct {
		name string
		f    func(*Config)
	}{
		{"zero lifetime", func(c *Config) { c.MeanLifetime = 0 }},
		{"negative sigma", func(c *Config) { c.LifetimeSigma = -1 }},
		{"zero rate", func(c *Config) { c.LifetimeRate = 0 }},
		{"nil bandwidth", func(c *Config) { c.Bandwidth = nil }},
		{"zero fraction", func(c *Config) { c.ThresholdFraction = 0 }},
		{"fraction > 1", func(c *Config) { c.ThresholdFraction = 1.5 }},
		{"negative floor", func(c *Config) { c.ThresholdFloor = -1 }},
	}
	for _, m := range mutations {
		c := DefaultConfig()
		m.f(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: expected error", m.name)
		}
	}
}

func TestLifetimeMeanMatchesPaper(t *testing.T) {
	// §5.1: average lifetime about 135 minutes.
	c := DefaultConfig()
	rng := xrand.New(1)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(c.SampleLifetime(rng))
	}
	mean := des.Time(sum / n)
	want := 135 * des.Minute
	if math.Abs(float64(mean-want))/float64(want) > 0.05 {
		t.Fatalf("mean lifetime %v want ~%v", mean, want)
	}
}

func TestLifetimeHeavyTail(t *testing.T) {
	// The Gnutella session-length distribution is skewed: the median is
	// well below the mean (about half of it for σ = 1.3).
	c := DefaultConfig()
	rng := xrand.New(2)
	const n = 100001
	below := 0
	medianGuess := 60 * des.Minute
	for i := 0; i < n; i++ {
		if c.SampleLifetime(rng) < medianGuess {
			below++
		}
	}
	frac := float64(below) / n
	if frac < 0.40 || frac > 0.60 {
		t.Fatalf("fraction of lifetimes under 60min = %.3f, want ~0.5 (heavy tail)", frac)
	}
}

func TestLifetimeRateScales(t *testing.T) {
	// §5.3: Lifetime_Rate multiplies every lifetime.
	base := DefaultConfig()
	fast := DefaultConfig()
	fast.LifetimeRate = 0.1
	rngA, rngB := xrand.New(3), xrand.New(3)
	for i := 0; i < 1000; i++ {
		a := float64(base.SampleLifetime(rngA))
		b := float64(fast.SampleLifetime(rngB))
		ratio := b / a
		if math.Abs(ratio-0.1) > 1e-9 {
			t.Fatalf("draw %d: rate scaling ratio = %g want 0.1", i, ratio)
		}
	}
	if fast.EffectiveMeanLifetime() != des.Time(float64(135*des.Minute)*0.1) {
		t.Fatal("EffectiveMeanLifetime does not apply the rate")
	}
}

func TestZeroSigmaIsDeterministic(t *testing.T) {
	c := DefaultConfig()
	c.LifetimeSigma = 0
	rng := xrand.New(4)
	for i := 0; i < 10; i++ {
		if got := c.SampleLifetime(rng); got != 135*des.Minute {
			t.Fatalf("σ=0 lifetime = %v want exactly 135m", got)
		}
	}
}

func TestBandwidthAnchors(t *testing.T) {
	// Paper's reading of figure 3 of [13]: only 20% of nodes below
	// 1 Mbit/s; everything within [56k, 100M].
	c := DefaultConfig()
	rng := xrand.New(5)
	const n = 100000
	below1M, outOfRange := 0, 0
	for i := 0; i < n; i++ {
		bw := c.SampleBandwidth(rng)
		if bw < 1e6 {
			below1M++
		}
		if bw < 56e3 || bw > 100e6 {
			outOfRange++
		}
	}
	frac := float64(below1M) / n
	if math.Abs(frac-0.20) > 0.01 {
		t.Fatalf("fraction below 1Mbps = %.3f want ~0.20", frac)
	}
	if outOfRange != 0 {
		t.Fatalf("%d draws out of [56k,100M]", outOfRange)
	}
}

func TestThreshold(t *testing.T) {
	c := DefaultConfig()
	// A modem node: 1% of 56k is 560 > 500, so fraction applies.
	if got := c.Threshold(56e3); got != 560 {
		t.Fatalf("Threshold(56k) = %g want 560", got)
	}
	// A hypothetical very weak node hits the floor.
	if got := c.Threshold(10e3); got != 500 {
		t.Fatalf("Threshold(10k) = %g want floor 500", got)
	}
	// A 10 Mbit node budgets 100 kbit/s.
	if got := c.Threshold(10e6); got != 1e5 {
		t.Fatalf("Threshold(10M) = %g want 1e5", got)
	}
}

func TestSampleProfileConsistent(t *testing.T) {
	c := DefaultConfig()
	rng := xrand.New(6)
	for i := 0; i < 1000; i++ {
		p := c.SampleProfile(rng)
		if p.Lifetime <= 0 {
			t.Fatal("non-positive lifetime")
		}
		if p.Threshold != c.Threshold(p.Bandwidth) {
			t.Fatal("profile threshold inconsistent with bandwidth")
		}
	}
}

func TestArrivalIntervalMean(t *testing.T) {
	// §5.1: mean interval between joins = meanLifetime / N, so the
	// population is stationary.
	c := DefaultConfig()
	rng := xrand.New(7)
	const n = 100000
	const draws = 50000
	var sum float64
	for i := 0; i < draws; i++ {
		sum += float64(c.ArrivalInterval(rng, n))
	}
	mean := sum / draws
	want := float64(135*des.Minute) / n
	if math.Abs(mean-want)/want > 0.03 {
		t.Fatalf("mean arrival interval %g want ~%g", mean, want)
	}
}

func TestArrivalIntervalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-positive population")
		}
	}()
	DefaultConfig().ArrivalInterval(xrand.New(1), 0)
}

// Rate scaling: 10× shorter lives mean 10× the join events, so the same
// draws give arrival gaps a tenth as long.
func TestEventRate(t *testing.T) {
	a := DefaultConfig()
	b := DefaultConfig()
	b.LifetimeRate = 0.1
	ra, rb := xrand.New(24), xrand.New(24)
	for i := 0; i < 100; i++ {
		ga := float64(a.ArrivalInterval(ra, 100000))
		gb := float64(b.ArrivalInterval(rb, 100000))
		if math.Abs(gb-ga/10) > 1 {
			t.Fatalf("draw %d: arrival gap %g at rate 0.1, want %g", i, gb, ga/10)
		}
	}
}

func TestGnutellaBandwidthMean(t *testing.T) {
	// Sanity: the measured Gnutella population is dominated by broadband;
	// the mean should land in the tens of Mbit/s but below the 100M cap.
	mean := GnutellaBandwidth().Mean()
	if mean < 5e6 || mean > 50e6 {
		t.Fatalf("bandwidth mean %.3g outside plausible range", mean)
	}
}

func TestResidualLifetimeStationarity(t *testing.T) {
	// Mean residual life of a renewal process is E[L²]/(2·E[L]); for a
	// log-normal with mean m and σ this is m·exp(σ²)/2.
	c := DefaultConfig()
	rng := xrand.New(21)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(c.SampleResidualLifetime(rng))
	}
	got := sum / n
	want := float64(c.MeanLifetime) * math.Exp(c.LifetimeSigma*c.LifetimeSigma) / 2
	if math.Abs(got-want)/want > 0.08 {
		t.Fatalf("mean residual %v want ~%v", des.Time(got), des.Time(want))
	}
}

func TestResidualLifetimeZeroSigma(t *testing.T) {
	c := DefaultConfig()
	c.LifetimeSigma = 0
	rng := xrand.New(22)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		v := c.SampleResidualLifetime(rng)
		if v < 0 || v > c.MeanLifetime {
			t.Fatalf("deterministic residual out of [0, mean]: %v", v)
		}
		sum += float64(v)
	}
	got := sum / n
	want := float64(c.MeanLifetime) / 2
	if math.Abs(got-want)/want > 0.02 {
		t.Fatalf("σ=0 mean residual %g want %g", got, want)
	}
}

func TestResidualLifetimeScalesWithRate(t *testing.T) {
	a := DefaultConfig()
	b := DefaultConfig()
	b.LifetimeRate = 0.1
	ra, rb := xrand.New(23), xrand.New(23)
	for i := 0; i < 100; i++ {
		va := float64(a.SampleResidualLifetime(ra))
		vb := float64(b.SampleResidualLifetime(rb))
		if math.Abs(vb/va-0.1) > 1e-9 {
			t.Fatalf("draw %d: residual did not scale with rate: %g", i, vb/va)
		}
	}
}

// minutesCDF is an empirical lifetime distribution over the given
// minute breakpoints, equally weighted.
func minutesCDF(minutes ...float64) *xrand.PiecewiseCDF {
	vals := make([]float64, len(minutes))
	cum := make([]float64, len(minutes))
	for i, m := range minutes {
		vals[i] = m * float64(des.Minute)
		cum[i] = float64(i+1) / float64(len(minutes))
	}
	return xrand.NewPiecewiseCDF(vals, cum)
}

func TestEmpiricalCDFFromSamples(t *testing.T) {
	// Lifetimes drawn through an empirical LifetimeCDF must reproduce the
	// distribution's mean, scaled by LifetimeRate.
	c := DefaultConfig()
	c.LifetimeCDF = minutesCDF(5, 30, 60, 135, 400)
	c.LifetimeRate = 2
	draw := xrand.New(32)
	var got float64
	const n = 100000
	for i := 0; i < n; i++ {
		got += float64(c.SampleLifetime(draw))
	}
	got /= n
	want := 2 * c.LifetimeCDF.Mean()
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("empirical mean %v want %v", des.Time(got), des.Time(want))
	}
}

func TestEmpiricalResidualBounded(t *testing.T) {
	c := DefaultConfig()
	c.LifetimeCDF = minutesCDF(10, 20, 30)
	rng := xrand.New(34)
	for i := 0; i < 2000; i++ {
		r := c.SampleResidualLifetime(rng)
		if r <= 0 || r > 30*des.Minute {
			t.Fatalf("residual %v outside (0, max]", r)
		}
	}
}
