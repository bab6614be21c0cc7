package xrand

import "math"

// Exp returns an exponentially distributed draw with the given mean.
// Exponential inter-arrival times produce the Poisson joining process the
// paper's common experiment prescribes (§5.1).
func (s *Source) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("xrand: Exp with non-positive mean")
	}
	// Inverse CDF; 1-Float64() is in (0,1] so Log never sees zero.
	return -mean * math.Log(1-s.Float64())
}

// LogNormal returns a draw from a log-normal distribution parameterised by
// the mu and sigma of the underlying normal. Heavy-tailed lifetimes in
// measured peer-to-peer systems are commonly fit with log-normals.
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.Normal())
}

// Normal returns a standard normal draw via the polar (Marsaglia) method.
func (s *Source) Normal() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// PiecewiseCDF draws from an empirical distribution described as a list of
// (value, cumulative-probability) breakpoints with log-linear
// interpolation between them. It is the workhorse for reproducing the
// measured Gnutella CDFs the paper's workload is calibrated to.
type PiecewiseCDF struct {
	values []float64 // strictly increasing
	cum    []float64 // strictly increasing, last entry 1.0
	logs   []float64 // math.Log(values[i]), so Quantile takes no logarithm
}

// NewPiecewiseCDF validates and builds a PiecewiseCDF. values must be
// positive and strictly increasing; cum must be strictly increasing and
// end at 1. cum[i] is the probability of a draw <= values[i]; draws below
// values[0] are clamped to values[0].
func NewPiecewiseCDF(values, cum []float64) *PiecewiseCDF {
	if len(values) != len(cum) || len(values) < 2 {
		panic("xrand: PiecewiseCDF needs >= 2 matched breakpoints")
	}
	for i := range values {
		if values[i] <= 0 {
			panic("xrand: PiecewiseCDF values must be positive")
		}
		if i > 0 && (values[i] <= values[i-1] || cum[i] <= cum[i-1]) {
			panic("xrand: PiecewiseCDF breakpoints must be strictly increasing")
		}
	}
	if cum[len(cum)-1] != 1 {
		panic("xrand: PiecewiseCDF must end at cumulative probability 1")
	}
	v := make([]float64, len(values))
	c := make([]float64, len(cum))
	logs := make([]float64, len(values))
	copy(v, values)
	copy(c, cum)
	for i, x := range v {
		logs[i] = math.Log(x)
	}
	return &PiecewiseCDF{values: v, cum: c, logs: logs}
}

// Quantile returns the value at cumulative probability p in [0,1], using
// log-linear interpolation between breakpoints (values span orders of
// magnitude, so interpolating in log space keeps the shape sane).
func (d *PiecewiseCDF) Quantile(p float64) float64 {
	if p <= d.cum[0] {
		return d.values[0]
	}
	if p >= 1 {
		return d.values[len(d.values)-1]
	}
	// Binary search for the containing segment.
	lo, hi := 0, len(d.cum)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if d.cum[mid] < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	frac := (p - d.cum[lo]) / (d.cum[hi] - d.cum[lo])
	lv, hv := d.logs[lo], d.logs[hi]
	return math.Exp(lv + frac*(hv-lv))
}

// Sample draws a random value from the distribution.
func (d *PiecewiseCDF) Sample(s *Source) float64 {
	return d.Quantile(s.Float64())
}

// Mean estimates the distribution mean by numeric integration of the
// quantile function. It is used by tests to check calibration against the
// paper's quoted averages.
func (d *PiecewiseCDF) Mean() float64 {
	const steps = 200000
	sum := 0.0
	for i := 0; i < steps; i++ {
		p := (float64(i) + 0.5) / steps
		sum += d.Quantile(p)
	}
	return sum / steps
}
