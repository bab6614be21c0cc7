// Package workload models the node population the paper simulates: who
// joins, how long they stay, and how much bandwidth they have.
//
// The paper calibrates both to the Gnutella measurement study of Saroiu,
// Gummadi and Gribble (ref [13]):
//
//   - Lifetime — "distribution of nodes' lifetime meets the measurement
//     results of Gnutella (figure 6 of [13]), in which the average
//     lifetime is about 135 minutes". We model this as a log-normal with
//     mean 135 min and a heavy tail (σ = 1.3, putting the median near
//     60 min), the standard parametric fit for that figure. The
//     Lifetime_Rate knob of §5.3 scales every draw.
//
//   - Bandwidth — "distribution of nodes' available bandwidth meets the
//     measurement results of Gnutella (figure 3 of [13])"; the paper adds
//     the anchor that "only 20% of nodes' available bandwidth is less than
//     1 Mbps". We encode the figure as a piecewise CDF from 56 kbit/s
//     modems up to 100 Mbit/s with exactly that 20 % anchor.
//
//   - Churn — nodes join "in a Poisson process" at a rate that keeps the
//     population stationary (N joins per mean lifetime), and each departs
//     after its drawn lifetime, so joining and leaving rates are "almost
//     identical" as §5.1 requires.
//
// Each node self-sets its PeerWindow bandwidth budget to 1 % of its total
// bandwidth with a 500 bit/s floor, the user threshold of §5.1.
package workload

import (
	"fmt"
	"math"

	"peerwindow/internal/des"
	"peerwindow/internal/xrand"
)

// Config parameterises the workload. The zero value is not usable; start
// from DefaultConfig.
type Config struct {
	// MeanLifetime is the average node lifetime before LifetimeRate
	// scaling. The paper's common case is 135 minutes.
	MeanLifetime des.Time
	// LifetimeSigma is the σ of the underlying normal of the log-normal
	// lifetime model; larger means heavier tail.
	LifetimeSigma float64
	// LifetimeRate is the §5.3 adaptivity knob: every lifetime draw is
	// multiplied by it. 1 is the common case.
	LifetimeRate float64
	// LifetimeCDF, when non-nil, replaces the log-normal lifetime model
	// with an empirical distribution — the path for replaying measured
	// traces. Draws are in nanoseconds and are still scaled by
	// LifetimeRate.
	LifetimeCDF *xrand.PiecewiseCDF
	// Bandwidth is the node total-bandwidth distribution in bit/s.
	Bandwidth *xrand.PiecewiseCDF
	// ThresholdFraction is the share of a node's bandwidth it will spend
	// on node collection (paper: 1 %).
	ThresholdFraction float64
	// ThresholdFloor is the minimum collection budget in bit/s (paper:
	// 500 bit/s, "affordable even for modem-linked nodes").
	ThresholdFloor float64
}

// DefaultConfig returns the paper's common-experiment workload (§5.1).
func DefaultConfig() Config {
	return Config{
		MeanLifetime:      135 * des.Minute,
		LifetimeSigma:     1.3,
		LifetimeRate:      1,
		Bandwidth:         GnutellaBandwidth(),
		ThresholdFraction: 0.01,
		ThresholdFloor:    500,
	}
}

// GnutellaBandwidth returns the bandwidth CDF calibrated to figure 3 of
// Saroiu et al. as the paper reads it: 20 % of nodes below 1 Mbit/s, a
// modem floor, and a long tail of well-connected hosts up to 100 Mbit/s.
func GnutellaBandwidth() *xrand.PiecewiseCDF {
	// Anchors: 20 % below 1 Mbit/s (the paper's reading of [13]); more
	// than half of the population above ~5 Mbit/s, which is what lets
	// over half of all nodes afford level 0 in the common experiment
	// (the paper's own remark on its figure 5).
	return xrand.NewPiecewiseCDF(
		[]float64{56e3, 128e3, 512e3, 1e6, 5e6, 10e6, 45e6, 100e6},
		[]float64{0.05, 0.10, 0.15, 0.20, 0.45, 0.65, 0.92, 1.00},
	)
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.MeanLifetime <= 0:
		return fmt.Errorf("workload: MeanLifetime = %v", c.MeanLifetime)
	case c.LifetimeSigma < 0:
		return fmt.Errorf("workload: LifetimeSigma = %g", c.LifetimeSigma)
	case c.LifetimeRate <= 0:
		return fmt.Errorf("workload: LifetimeRate = %g", c.LifetimeRate)
	case c.Bandwidth == nil:
		return fmt.Errorf("workload: nil Bandwidth distribution")
	case c.ThresholdFraction <= 0 || c.ThresholdFraction > 1:
		return fmt.Errorf("workload: ThresholdFraction = %g", c.ThresholdFraction)
	case c.ThresholdFloor < 0:
		return fmt.Errorf("workload: ThresholdFloor = %g", c.ThresholdFloor)
	}
	return nil
}

// EffectiveMeanLifetime is the mean lifetime after LifetimeRate scaling.
func (c Config) EffectiveMeanLifetime() des.Time {
	return des.Time(float64(c.MeanLifetime) * c.LifetimeRate)
}

// SampleLifetime draws one node lifetime. The log-normal is parameterised
// so its mean equals EffectiveMeanLifetime: mean = exp(μ + σ²/2).
func (c Config) SampleLifetime(rng *xrand.Source) des.Time {
	if c.LifetimeCDF != nil {
		v := c.LifetimeCDF.Sample(rng) * c.LifetimeRate
		if v < 1 {
			v = 1
		}
		return des.Time(v)
	}
	mean := float64(c.EffectiveMeanLifetime())
	if c.LifetimeSigma == 0 {
		return des.Time(mean)
	}
	mu := math.Log(mean) - c.LifetimeSigma*c.LifetimeSigma/2
	v := rng.LogNormal(mu, c.LifetimeSigma)
	if v < 1 {
		v = 1 // clamp to one nanosecond; zero-length lives break churn math
	}
	return des.Time(v)
}

// SampleResidualLifetime draws the remaining lifetime of a node observed
// at a random instant of a stationary system (warm starts). Residual life
// is U·T* where T* is a length-biased lifetime draw; for a log-normal
// LN(μ,σ) the length-biased distribution is LN(μ+σ², σ).
func (c Config) SampleResidualLifetime(rng *xrand.Source) des.Time {
	if c.LifetimeCDF != nil {
		// Length-biased draw by acceptance-rejection against the
		// distribution's upper end, then a uniform age.
		hi := c.LifetimeCDF.Quantile(1)
		for {
			v := c.LifetimeCDF.Sample(rng)
			if rng.Float64() < v/hi {
				r := v * rng.Float64() * c.LifetimeRate
				if r < 1 {
					r = 1
				}
				return des.Time(r)
			}
		}
	}
	mean := float64(c.EffectiveMeanLifetime())
	if c.LifetimeSigma == 0 {
		return des.Time(mean * rng.Float64())
	}
	mu := math.Log(mean) - c.LifetimeSigma*c.LifetimeSigma/2
	biased := rng.LogNormal(mu+c.LifetimeSigma*c.LifetimeSigma, c.LifetimeSigma)
	v := biased * rng.Float64()
	if v < 1 {
		v = 1
	}
	return des.Time(v)
}

// SampleBandwidth draws one node's total available bandwidth in bit/s.
func (c Config) SampleBandwidth(rng *xrand.Source) float64 {
	return c.Bandwidth.Sample(rng)
}

// Threshold returns the collection-bandwidth budget (bit/s) a node with
// the given total bandwidth sets for itself: max(fraction·bw, floor).
func (c Config) Threshold(bandwidth float64) float64 {
	w := c.ThresholdFraction * bandwidth
	if w < c.ThresholdFloor {
		w = c.ThresholdFloor
	}
	return w
}

// Profile is one sampled node: how long it will live and what it can
// spend.
type Profile struct {
	Lifetime  des.Time
	Bandwidth float64 // total available bandwidth, bit/s
	Threshold float64 // self-set collection budget, bit/s
}

// SampleProfile draws a complete node profile.
func (c Config) SampleProfile(rng *xrand.Source) Profile {
	bw := c.SampleBandwidth(rng)
	return Profile{
		Lifetime:  c.SampleLifetime(rng),
		Bandwidth: bw,
		Threshold: c.Threshold(bw),
	}
}

// ArrivalInterval draws the exponential gap between two successive node
// joins for a system held at population n: the stationary join rate is
// n / meanLifetime, exactly the paper's "expectation of the time interval
// of two successive node joining events is 100,000/135 minutes" — i.e.
// mean interval = meanLifetime / n.
func (c Config) ArrivalInterval(rng *xrand.Source, n int) des.Time {
	if n <= 0 {
		panic("workload: ArrivalInterval with non-positive population")
	}
	mean := float64(c.EffectiveMeanLifetime()) / float64(n)
	return des.Time(rng.Exp(mean))
}
