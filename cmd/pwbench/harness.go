package main

import (
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"time"

	"peerwindow/internal/des"
)

// sizes fixes how much work one repeat of each workload does. The full
// preset is what BENCHMARK.json measures; smoke is the same code at toy
// scale for the ≤10 s self-test.
type sizes struct {
	repeats int // minimum same-seed repeats per run

	// paper_scaled
	commonN        int
	scales         []int
	ratesN         int
	shardedN       int
	shardedWarm    des.Time
	shardedMeasure des.Time

	// cluster_churn
	clusterN       int
	clusterSettle  des.Time
	clusterMeasure des.Time
	waveBase       int // join wave: converged population ...
	waveJoins      int // ... and newcomers joined into it

	// udp_live
	udpNodes int

	// query_mixed
	storeN    int
	writeRate int // paced deltas per second

	// telemetry/trace overhead probes on a small cluster
	overheadN   int
	overheadRun des.Time

	probeBudget time.Duration // wall time one layer probe loop may take
}

func fullSizes() sizes {
	return sizes{
		repeats:        3,
		commonN:        100000,
		scales:         []int{5000, 10000, 20000, 50000, 100000},
		ratesN:         20000,
		shardedN:       1000000,
		shardedWarm:    10 * des.Minute,
		shardedMeasure: 30 * des.Minute,
		clusterN:       1000,
		clusterSettle:  2 * des.Minute,
		clusterMeasure: 6 * des.Minute,
		waveBase:       600,
		waveJoins:      60,
		udpNodes:       16,
		storeN:         10000,
		writeRate:      5000,
		overheadN:      400,
		overheadRun:    5 * des.Minute,
		probeBudget:    60 * time.Millisecond,
	}
}

func smokeSizes() sizes {
	return sizes{
		repeats:        1,
		commonN:        5000,
		scales:         []int{1000, 2000},
		ratesN:         2000,
		shardedN:       10000,
		shardedWarm:    5 * des.Minute,
		shardedMeasure: 10 * des.Minute,
		clusterN:       100,
		clusterSettle:  2 * des.Minute,
		clusterMeasure: 2 * des.Minute,
		waveBase:       60,
		waveJoins:      6,
		udpNodes:       4,
		storeN:         1000,
		writeRate:      2000,
		overheadN:      60,
		overheadRun:    2 * des.Minute,
		probeBudget:    5 * time.Millisecond,
	}
}

// runCtx is what one repeat of a workload is handed.
type runCtx struct {
	seed uint64
	sz   sizes
	// phase is the wall-time budget of one repeat of a time-boxed
	// workload (udp_live, query_mixed); fixed-work workloads ignore it.
	phase time.Duration
	// rec is nil on untraced repeats; every recorder method is a no-op
	// on nil, so workloads call it unconditionally.
	rec *recorder
}

func (c *runCtx) traced() bool { return c.rec != nil }

// sample is what one repeat measured. A metric may carry several
// values per repeat (one per chunk of the measured window): short chunks
// let the run's median step over a stretch the host stole.
type sample struct {
	m      map[string][]float64
	ops    int      // operations attempted
	failed int      // operations that failed a check or timed out
	bad    []string // output checks that failed
	// fingerprint summarises the simulated outcome; same-seed repeats of
	// a deterministic workload must agree on it. Empty means the
	// workload runs in real time and has none.
	fingerprint string
}

func newSample() sample { return sample{m: map[string][]float64{}} }

func (s *sample) add(name string, v float64) { s.m[name] = append(s.m[name], v) }

func (s *sample) check(ok bool, format string, args ...any) {
	if !ok {
		s.bad = append(s.bad, fmt.Sprintf(format, args...))
	}
}

// metricValue is one reported number: the median over every value the
// run's repeats contributed, with the interquartile range ÷ median
// beside it as the spread.
type metricValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread"`
	N      int     `json:"n"`
}

// report is the outcome of one run (one workload, traced or not).
type report struct {
	Workload  string                 `json:"workload"`
	Traced    bool                   `json:"traced"`
	Seed      uint64                 `json:"seed"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Notes     []string               `json:"notes,omitempty"`
}

// aggregate folds same-seed repeats into one report: medians, spreads,
// summed operation counts, and the repeat-equality check.
func aggregate(w *workloadDef, seed uint64, reps []sample) *report {
	r := &report{Workload: w.name, Seed: seed, Correct: true, Metrics: map[string]metricValue{}}
	series := map[string][]float64{}
	for i, s := range reps {
		r.Attempted += s.ops
		r.Failed += s.failed
		for _, b := range s.bad {
			r.Correct = false
			r.Notes = append(r.Notes, fmt.Sprintf("repeat %d: %s", i, b))
		}
		if s.fingerprint != reps[0].fingerprint {
			r.Correct = false
			r.Notes = append(r.Notes, fmt.Sprintf("repeat %d: outcome %s differs from repeat 0's %s under the same seed",
				i, s.fingerprint, reps[0].fingerprint))
		}
		for k, vs := range s.m {
			series[k] = append(series[k], vs...)
		}
	}
	for k, vs := range series {
		r.Metrics[k] = summarise(k, vs)
	}
	return r
}

// summarise reduces one metric's values to the reported row.
func summarise(name string, vs []float64) metricValue {
	return metricValue{Value: median(vs), Unit: unitOf(name), Spread: spread(vs), N: len(vs)}
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quantile returns the q-quantile of vs by linear interpolation between
// order statistics; vs is not modified.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// spread is the interquartile range over the median: how far the run's
// own values disagree, without letting one stolen time slice decide.
func spread(vs []float64) float64 {
	m := median(vs)
	if len(vs) < 2 || m == 0 {
		return 0
	}
	return (quantile(vs, 0.75) - quantile(vs, 0.25)) / math.Abs(m)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durationsMS converts a latency sample to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// runUntraced is the measured run: repeat the unit with the same seed —
// at least the minimum number of times, and for a fixed-work unit as
// often as fits into the requested duration — and report medians.
func runUntraced(w *workloadDef, seed uint64, seconds float64, sz sizes) *report {
	budget := time.Duration(seconds * float64(time.Second))
	ctx := &runCtx{seed: seed, sz: sz, phase: budget / time.Duration(sz.repeats)}
	var reps []sample
	start := time.Now()
	fits := func() bool {
		used := time.Since(start)
		return w.fixedWork && used+used/time.Duration(len(reps)) <= budget
	}
	for len(reps) < sz.repeats || fits() {
		// Each repeat starts from a collected heap handed back to the
		// OS, so the previous repeat's garbage neither counts towards
		// this repeat's peak memory nor has to be collected inside its
		// measured window.
		debug.FreeOSMemory()
		resetPeakRSS()
		s := w.run(ctx)
		s.add("peak_rss_mb", peakRSSMB())
		reps = append(reps, s)
	}
	return aggregate(w, seed, reps)
}
