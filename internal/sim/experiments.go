package sim

import (
	"fmt"
	"math"
	"sort"

	"peerwindow/internal/core"
	"peerwindow/internal/des"
	"peerwindow/internal/metrics"
	"peerwindow/internal/shard"
	"peerwindow/internal/topology"
	"peerwindow/internal/trace"
	"peerwindow/internal/xrand"
)

// This file drives the reproductions of the paper's evaluation (§5).
// Each figure has a Run* function returning structured results plus a
// table renderer; cmd/pwsim and bench_test.go are thin wrappers around
// these.

// CommonResult holds everything the common-experiment figures (5–8) need
// from one run.
type CommonResult struct {
	N            int
	LifetimeRate float64
	Population   int
	LevelCounts  []int         // figure 5 (and 9/11 slices)
	ListSizes    []metrics.Agg // figure 6: per-level peer-list size
	ErrorRates   []metrics.Agg // figure 7: per-level error rate
	InBps        []metrics.Agg // figure 8: per-level input bandwidth
	OutBps       []metrics.Agg // figure 8: per-level output bandwidth
}

// MeanErrorRate returns the population-weighted mean peer-list error
// rate (figures 10 and 12).
func (r CommonResult) MeanErrorRate() float64 {
	var total metrics.Agg
	for l := range r.ErrorRates {
		total.Merge(r.ErrorRates[l])
	}
	return total.Mean()
}

// MaxLevelUsed returns the deepest level with population.
func (r CommonResult) MaxLevelUsed() int { return len(r.LevelCounts) - 1 }

// CommonOptions tune a common-experiment run; zero values take paper
// defaults.
type CommonOptions struct {
	Warm     des.Time // settle time before measuring (default 30 min)
	Measure  des.Time // measurement window (default 30 min)
	Instants int      // error-rate sampling instants (default 10)
	Sample   int      // nodes sampled per instant (default 1000)
}

func (o *CommonOptions) defaults() {
	if o.Warm == 0 {
		o.Warm = 30 * des.Minute
	}
	if o.Measure == 0 {
		o.Measure = 30 * des.Minute
	}
	if o.Instants == 0 {
		o.Instants = 10
	}
	if o.Sample == 0 {
		o.Sample = 1000
	}
}

// RunCommon executes the paper's common experiment (§5.1) at the given
// scale and Lifetime_Rate on the scaled (centralized-peer-list) simulator
// — the methodology of the paper's own 100,000-node runs — and returns
// what figures 5–8 read. The result is a pure function of
// (n, lifetimeRate, seed, opt): every sample is taken in (slice, slot)
// order, so two calls agree to the last bit, Fig 7's aggregates included.
func RunCommon(n int, lifetimeRate float64, seed uint64, opt CommonOptions) CommonResult {
	r, _ := RunCommonSharded(n, lifetimeRate, seed, 1, 1, opt)
	return r
}

// RunCommonSharded is RunCommon with the event work spread over shards
// engines driven by workers goroutines (pwsim's sharded experiment passes
// its flags); the result does not depend on either. The simulator is
// returned in its end state for callers that also want its digest or
// driver statistics.
func RunCommonSharded(n int, lifetimeRate float64, seed uint64, shards, workers int, opt CommonOptions) (CommonResult, *ShardedScaled) {
	cfg := DefaultShardedScaledConfig(n, seed, shards)
	cfg.Workers = workers
	cfg.Workload.LifetimeRate = lifetimeRate
	s := NewShardedScaled(cfg)
	return measureCommon(s, opt), s
}

// measureCommon is the one body of the common experiment: warm up, reset
// the traffic meters, sample error rates at opt.Instants evenly spaced
// instants of the measurement window, then read bandwidth, the level
// census and every node's list size.
func measureCommon(s *ShardedScaled, opt CommonOptions) CommonResult {
	cfg := s.cfg
	opt.defaults()
	s.Run(opt.Warm)
	s.ResetTraffic()

	errAggs := make([]metrics.Agg, maxPrefixDepth+1)
	gap := opt.Measure / des.Time(opt.Instants)
	for i := 0; i < opt.Instants; i++ {
		s.Run(gap)
		inst := s.ErrorRates(opt.Sample)
		for l := range inst {
			errAggs[l].Merge(inst[l])
		}
	}
	in, out := s.Bandwidth()
	return CommonResult{
		N:            cfg.N,
		LifetimeRate: cfg.Workload.LifetimeRate,
		Population:   s.Population(),
		LevelCounts:  s.LevelCounts(),
		ListSizes:    s.PeerListSizes(0),
		ErrorRates:   errAggs,
		InBps:        in,
		OutBps:       out,
	}
}

// Fig5Table renders the figure 5 reproduction: node distribution per
// level in the common 100,000-node PeerWindow.
func Fig5Table(r CommonResult) *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Figure 5 — node distribution by level (N=%d, Lifetime_Rate=%g)", r.N, r.LifetimeRate),
		"level", "nodes", "share")
	total := 0
	for _, c := range r.LevelCounts {
		total += c
	}
	for l, c := range r.LevelCounts {
		t.AddRow(l, c, fmt.Sprintf("%.1f%%", 100*float64(c)/float64(total)))
	}
	return t
}

// Fig6Table renders the figure 6 reproduction: peer-list sizes per
// level (min and max nearly coincide, as the paper notes).
func Fig6Table(r CommonResult) *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Figure 6 — peer list size by level (N=%d)", r.N),
		"level", "min", "mean", "max")
	for l := range r.ListSizes {
		a := r.ListSizes[l]
		if a.N() == 0 {
			continue
		}
		t.AddRow(l, a.Min(), a.Mean(), a.Max())
	}
	return t
}

// Fig7Table renders the figure 7 reproduction: per-level peer-list
// error rate.
func Fig7Table(r CommonResult) *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Figure 7 — peer list error rate by level (N=%d)", r.N),
		"level", "error rate", "samples")
	for l := range r.ErrorRates {
		a := r.ErrorRates[l]
		if a.N() == 0 {
			continue
		}
		t.AddRow(l, fmt.Sprintf("%.4f%%", 100*a.Mean()), a.N())
	}
	return t
}

// Fig8Table renders the figure 8 reproduction: per-level input/output
// maintenance bandwidth.
func Fig8Table(r CommonResult) *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Figure 8 — maintenance bandwidth by level (N=%d)", r.N),
		"level", "in bit/s", "out bit/s", "in per 1000 ptrs")
	for l := range r.InBps {
		in := r.InBps[l]
		if in.N() == 0 {
			continue
		}
		out := r.OutBps[l].Mean()
		size := r.ListSizes[l].Mean()
		per1000 := 0.0
		if size > 0 {
			per1000 = in.Mean() / size * 1000
		}
		t.AddRow(l, in.Mean(), out, per1000)
	}
	return t
}

// ScaleResult is one row of the scalability experiment (§5.2).
type ScaleResult struct {
	N      int
	Common CommonResult
}

// RunScales executes the §5.2 scalability sweep, one run per scale, in
// parallel. Point i runs with seed+i*1000 and lands in out[i], so the
// table does not depend on the dispatch order or on GOMAXPROCS.
func RunScales(scales []int, seed uint64, opt CommonOptions) []ScaleResult {
	out := make([]ScaleResult, len(scales))
	order := costliestFirst(len(scales), func(i int) float64 { return float64(scales[i]) })
	shard.RunParallel(len(order), 0, func(k int) {
		i := order[k]
		out[i] = ScaleResult{
			N:      scales[i],
			Common: RunCommon(scales[i], 1.0, seed+uint64(i)*1000, opt),
		}
	})
	return out
}

// costliestFirst returns the indices 0..n-1 by descending cost (ties in
// index order). RunParallel hands tasks out in slice order, so leading
// with the longest run keeps a worker from idling while a sweep's most
// expensive point — N = 100,000 is half of figure 9's work — runs last.
func costliestFirst(n int, cost func(i int) float64) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return cost(order[a]) > cost(order[b]) })
	return order
}

// Fig9Table renders figure 9: level distribution vs system scale.
func Fig9Table(rs []ScaleResult) *metrics.Table {
	maxLevel := 0
	for _, r := range rs {
		if m := r.Common.MaxLevelUsed(); m > maxLevel {
			maxLevel = m
		}
	}
	headers := []string{"scale"}
	for l := 0; l <= maxLevel; l++ {
		headers = append(headers, fmt.Sprintf("L%d", l))
	}
	t := metrics.NewTable("Figure 9 — node distribution vs system scale (% per level)", headers...)
	for _, r := range rs {
		total := 0
		for _, c := range r.Common.LevelCounts {
			total += c
		}
		row := []interface{}{r.N}
		for l := 0; l <= maxLevel; l++ {
			c := 0
			if l < len(r.Common.LevelCounts) {
				c = r.Common.LevelCounts[l]
			}
			row = append(row, fmt.Sprintf("%.1f", 100*float64(c)/float64(total)))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig10Table renders figure 10: mean error rate vs scale.
func Fig10Table(rs []ScaleResult) *metrics.Table {
	t := metrics.NewTable("Figure 10 — average peer list error rate vs scale",
		"scale", "mean error rate")
	for _, r := range rs {
		t.AddRow(r.N, fmt.Sprintf("%.4f%%", 100*r.Common.MeanErrorRate()))
	}
	return t
}

// RateResult is one row of the adaptivity experiment (§5.3).
type RateResult struct {
	LifetimeRate float64
	Common       CommonResult
}

// DefaultLifetimeRates are the figure 11/12 x-axis points.
func DefaultLifetimeRates() []float64 { return []float64{0.1, 0.2, 0.5, 1, 2, 5, 10} }

// RunLifetimeRates executes the §5.3 adaptivity sweep at fixed scale, in
// parallel; seeds and result order follow RunScales. Churn, and with it
// the event count, is inversely proportional to Lifetime_Rate, so the
// shortest lifetimes go first.
func RunLifetimeRates(n int, rates []float64, seed uint64, opt CommonOptions) []RateResult {
	out := make([]RateResult, len(rates))
	order := costliestFirst(len(rates), func(i int) float64 { return 1 / rates[i] })
	shard.RunParallel(len(order), 0, func(k int) {
		i := order[k]
		out[i] = RateResult{
			LifetimeRate: rates[i],
			Common:       RunCommon(n, rates[i], seed+uint64(i)*1000, opt),
		}
	})
	return out
}

// Fig11Table renders figure 11: level distribution vs Lifetime_Rate.
func Fig11Table(rs []RateResult) *metrics.Table {
	maxLevel := 0
	for _, r := range rs {
		if m := r.Common.MaxLevelUsed(); m > maxLevel {
			maxLevel = m
		}
	}
	headers := []string{"lifetime_rate"}
	for l := 0; l <= maxLevel; l++ {
		headers = append(headers, fmt.Sprintf("L%d", l))
	}
	t := metrics.NewTable("Figure 11 — node distribution vs Lifetime_Rate (% per level)", headers...)
	for _, r := range rs {
		total := 0
		for _, c := range r.Common.LevelCounts {
			total += c
		}
		row := []interface{}{r.LifetimeRate}
		for l := 0; l <= maxLevel; l++ {
			c := 0
			if l < len(r.Common.LevelCounts) {
				c = r.Common.LevelCounts[l]
			}
			row = append(row, fmt.Sprintf("%.1f", 100*float64(c)/float64(total)))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig12Table renders figure 12: mean error rate vs Lifetime_Rate
// (log-scaled in the paper; the inverse proportion shows directly in the
// numbers).
func Fig12Table(rs []RateResult) *metrics.Table {
	t := metrics.NewTable("Figure 12 — average peer list error rate vs Lifetime_Rate",
		"lifetime_rate", "mean error rate")
	for _, r := range rs {
		t.AddRow(r.LifetimeRate, fmt.Sprintf("%.4f%%", 100*r.Common.MeanErrorRate()))
	}
	return t
}

// DelayResult measures the multicast dissemination delay at full
// fidelity over the transit-stub topology — the quantity behind the
// paper's error analysis ("all the nodes in the audience set will
// receive the event within (1+0.5)×16.6 = 24.9 s").
type DelayResult struct {
	N          int
	Events     int
	PerDeliver *metrics.Reservoir // delay of each individual delivery
	Completion metrics.Agg        // time until the last audience member heard
	StepCost   des.Time           // implied cost per multicast step
}

// MeasureMulticastDelay builds an n-node full-fidelity overlay on the
// paper's transit-stub topology, fires `events` info-change multicasts
// from random subjects, and measures per-delivery and completion delays.
func MeasureMulticastDelay(n, events int, seed uint64) DelayResult {
	coreCfg := core.DefaultConfig()
	net := topology.Generate(topology.DefaultParams(), xrand.New(seed))
	// Every node records spans from the start, so every multicast is traced
	// and its deliver spans carry the delivery times.
	spans := trace.NewSpanBuffer(64 * n)
	c := NewCluster(ClusterConfig{Core: coreCfg, Net: net, Seed: seed, Spans: spans})
	first := c.AddNode(1e9)
	c.Bootstrap(first)
	for i := 1; i < n; i++ {
		sn := c.AddNode(1e9)
		if err := c.Join(sn, c.RandomJoined(sn), des.Hour); err != nil {
			panic(fmt.Sprintf("sim: delay experiment join failed: %v", err))
		}
		c.Run(30 * des.Second)
	}
	c.Run(2 * des.Minute)

	res := DelayResult{N: n, Events: events, PerDeliver: metrics.NewReservoir(4096, seed)}
	rng := xrand.New(seed + 99)
	for e := 0; e < events; e++ {
		alive := c.Alive()
		subject := alive[rng.Intn(len(alive))]
		t0 := c.Engine.Now()
		mark := spans.Total()
		subject.Node.SetInfo([]byte{byte(e)})
		c.Run(3 * des.Minute)
		window, _, missed := spans.SnapshotSince(mark)
		if missed > 0 {
			panic(fmt.Sprintf("sim: delay experiment span buffer evicted %d spans", missed))
		}
		last := t0
		for _, s := range window {
			if s.Kind == trace.SpanDeliver {
				res.PerDeliver.Add((s.At - t0).Seconds())
				if s.At > last {
					last = s.At
				}
			}
		}
		res.Completion.Add((last - t0).Seconds())
	}
	logN := math.Log2(float64(n))
	res.StepCost = des.FromSeconds(res.Completion.Mean() / logN)
	return res
}

// DelayTable renders the dissemination-delay experiment.
func DelayTable(r DelayResult) *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Multicast delay (full fidelity, transit-stub, N=%d, %d events)", r.N, r.Events),
		"metric", "value", "paper model")
	logN := math.Log2(float64(r.N))
	t.AddRow("median delivery delay (s)", r.PerDeliver.Quantile(0.5), "—")
	t.AddRow("p95 delivery delay (s)", r.PerDeliver.Quantile(0.95), "—")
	t.AddRow("mean completion (s)", r.Completion.Mean(),
		fmt.Sprintf("(1+0.5)·log2(N) = %.1f", 1.5*logN))
	t.AddRow("implied per-step cost (s)", r.StepCost.Seconds(), "1.5")
	return t
}
