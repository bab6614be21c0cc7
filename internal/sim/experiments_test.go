package sim

import (
	"math"
	"testing"

	"peerwindow/internal/core"
	"peerwindow/internal/des"
	"peerwindow/internal/workload"
)

// fastOpt trades some statistical smoothness for test speed.
func fastOpt() CommonOptions {
	return CommonOptions{
		Warm:     15 * des.Minute,
		Measure:  15 * des.Minute,
		Instants: 5,
		Sample:   400,
	}
}

func shareLevel0(counts []int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	return float64(counts[0]) / float64(total)
}

func TestFig5MajorityAtLevelZero(t *testing.T) {
	if testing.Short() {
		t.Skip("figure run skipped in -short")
	}
	r := RunCommon(100000, 1.0, 1, fastOpt())
	// §5.1: "there are more than half of the nodes running at level 0".
	if s := shareLevel0(r.LevelCounts); s < 0.5 {
		t.Fatalf("level-0 share = %.2f, paper reports > 0.5", s)
	}
	// Population stays stationary.
	if r.Population < 95000 || r.Population > 105000 {
		t.Fatalf("population drifted to %d", r.Population)
	}
}

func TestFig6PeerListSizesHalvePerLevel(t *testing.T) {
	if testing.Short() {
		t.Skip("figure run skipped in -short")
	}
	r := RunCommon(100000, 1.0, 2, fastOpt())
	for l := range r.ListSizes {
		a := r.ListSizes[l]
		if a.N() < 10 {
			continue
		}
		want := float64(r.Population) / math.Pow(2, float64(l))
		if math.Abs(a.Mean()-want)/want > 0.10 {
			t.Fatalf("level %d size %.0f, want ~N/2^l = %.0f", l, a.Mean(), want)
		}
		// "Peer lists of the nodes at a given level are almost of the
		// same size ... the maximum and the minimum values are hard to
		// be distinguished." Group sizes are binomial, so the min/max
		// spread scales like 1/sqrt(size).
		tol := math.Max(0.10, 12/math.Sqrt(a.Mean()))
		if spread := (a.Max() - a.Min()) / a.Mean(); spread > tol {
			t.Fatalf("level %d min/max spread %.3f exceeds %.3f", l, spread, tol)
		}
	}
}

func TestFig7ErrorRateSmallAndOrdered(t *testing.T) {
	if testing.Short() {
		t.Skip("figure run skipped in -short")
	}
	r := RunCommon(100000, 1.0, 3, fastOpt())
	// §5.1: "the error rate is less than 0.5%" — allow the same order.
	overall := r.MeanErrorRate()
	if overall > 0.01 {
		t.Fatalf("mean error rate %.4f, paper reports < 0.005", overall)
	}
	// "Higher-level nodes have peer lists with fewer errors than
	// lower-level nodes": level 0 must not exceed the deepest busy
	// level.
	deepest := -1
	for l := range r.ErrorRates {
		if r.ErrorRates[l].N() >= 50 {
			deepest = l
		}
	}
	if deepest > 0 {
		e0 := r.ErrorRates[0].Mean()
		ed := r.ErrorRates[deepest].Mean()
		if e0 > ed*1.15 {
			t.Fatalf("error at level 0 (%.5f) exceeds level %d (%.5f); flow direction broken",
				e0, deepest, ed)
		}
	}
}

func TestFig8BandwidthShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure run skipped in -short")
	}
	r := RunCommon(100000, 1.0, 4, fastOpt())
	// Abstract: collecting 1000 pointers costs less than 1 kbit/s; §5.1
	// reports ~500 bit/s per 1000 pointers.
	for l := range r.InBps {
		in := r.InBps[l]
		if in.N() == 0 || r.ListSizes[l].Mean() < 100 {
			continue
		}
		per1000 := in.Mean() / r.ListSizes[l].Mean() * 1000
		if per1000 > 1000 {
			t.Fatalf("level %d input %.0f bit/s per 1000 pointers, abstract promises < 1000", l, per1000)
		}
		if per1000 < 100 {
			t.Fatalf("level %d input %.0f bit/s per 1000 pointers implausibly low", l, per1000)
		}
	}
	// "Almost all the messages are sent from 0-level or 1-level nodes."
	var top, rest float64
	for l := range r.OutBps {
		if r.OutBps[l].N() == 0 {
			continue
		}
		pop := float64(r.LevelCounts[l])
		if l <= 1 {
			top += r.OutBps[l].Mean() * pop
		} else {
			rest += r.OutBps[l].Mean() * pop
		}
	}
	if top < 2*rest {
		t.Fatalf("output not concentrated at strong levels: top=%.0f rest=%.0f", top, rest)
	}
}

func TestFig9MoreLevelsAtLargerScales(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep skipped in -short")
	}
	rs := RunScales([]int{5000, 20000, 100000}, 5, fastOpt())
	// §5.2: small systems run (almost) entirely at level 0; as the
	// system expands, more levels appear and the level-0 share falls.
	s5 := shareLevel0(rs[0].Common.LevelCounts)
	s100 := shareLevel0(rs[2].Common.LevelCounts)
	if s5 < 0.85 {
		t.Fatalf("5000-node level-0 share %.2f; paper has ~all nodes at level 0", s5)
	}
	if s100 >= s5 {
		t.Fatalf("level-0 share did not fall with scale: %.2f -> %.2f", s5, s100)
	}
	if rs[2].Common.MaxLevelUsed() <= rs[0].Common.MaxLevelUsed() {
		t.Fatalf("larger system should use more levels: %d vs %d",
			rs[2].Common.MaxLevelUsed(), rs[0].Common.MaxLevelUsed())
	}
}

func TestFig10ErrorRisesSlightlyWithScale(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep skipped in -short")
	}
	rs := RunScales([]int{5000, 100000}, 6, fastOpt())
	e5 := rs[0].Common.MeanErrorRate()
	e100 := rs[1].Common.MeanErrorRate()
	if e100 < e5 {
		t.Fatalf("error rate should rise with scale: %.4f -> %.4f", e5, e100)
	}
	// "But the change is very slight."
	if e100 > 3*e5 {
		t.Fatalf("error rise too steep: %.4f -> %.4f", e5, e100)
	}
}

func TestFig11AdaptivityLevels(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep skipped in -short")
	}
	rs := RunLifetimeRates(100000, []float64{0.1, 1, 10}, 7, fastOpt())
	fast, common, slow := rs[0].Common, rs[1].Common, rs[2].Common
	// §5.3: at Lifetime_Rate 0.1 "there comes out 10 levels and only
	// about 15% 0-level nodes".
	if got := fast.MaxLevelUsed() + 1; got < 8 {
		t.Fatalf("rate 0.1 uses %d levels, paper reports ~10", got)
	}
	s0 := shareLevel0(fast.LevelCounts)
	if s0 < 0.05 || s0 > 0.35 {
		t.Fatalf("rate 0.1 level-0 share %.2f, paper reports ~0.15", s0)
	}
	if sc := shareLevel0(common.LevelCounts); sc < 0.5 {
		t.Fatalf("common level-0 share %.2f", sc)
	}
	if ss := shareLevel0(slow.LevelCounts); ss <= shareLevel0(common.LevelCounts) {
		t.Fatalf("stabler system should push nodes up: %.2f vs %.2f",
			ss, shareLevel0(common.LevelCounts))
	}
}

func TestFig12ErrorInverselyProportionalToLifetime(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep skipped in -short")
	}
	rs := RunLifetimeRates(100000, []float64{0.1, 1, 10}, 8, fastOpt())
	eFast := rs[0].Common.MeanErrorRate()
	eCommon := rs[1].Common.MeanErrorRate()
	eSlow := rs[2].Common.MeanErrorRate()
	// §5.3: at rate 0.1 "the average peer list error rate is about 10
	// times of that in the common case ... between 1% and 5%".
	ratio := eFast / eCommon
	if ratio < 5 || ratio > 20 {
		t.Fatalf("rate-0.1 error %.4f vs common %.4f: ratio %.1f, want ~10", eFast, eCommon, ratio)
	}
	if eFast < 0.01 || eFast > 0.08 {
		t.Fatalf("rate-0.1 error %.4f outside the paper's 1–5%% band (with slack)", eFast)
	}
	if eSlow >= eCommon {
		t.Fatalf("stabler system must have fewer errors: %.4f vs %.4f", eSlow, eCommon)
	}
}

func TestScaledTablesRender(t *testing.T) {
	r := RunCommon(5000, 1.0, 9, CommonOptions{
		Warm: 5 * des.Minute, Measure: 5 * des.Minute, Instants: 2, Sample: 100,
	})
	for _, tb := range []interface{ Render() string }{
		Fig5Table(r), Fig6Table(r), Fig7Table(r), Fig8Table(r),
	} {
		if len(tb.Render()) == 0 {
			t.Fatal("empty table render")
		}
	}
	rs := []ScaleResult{{N: 5000, Common: r}}
	rr := []RateResult{{LifetimeRate: 1, Common: r}}
	for _, tb := range []interface{ Render() string }{
		Fig9Table(rs), Fig10Table(rs), Fig11Table(rr), Fig12Table(rr),
	} {
		if len(tb.Render()) == 0 {
			t.Fatal("empty sweep table render")
		}
	}
}

// TestScaledMatchesFullFidelity cross-validates the two simulators: the
// same (small) workload run through real protocol messages and through
// the scaled model must agree on the level-0 share and peer-list sizes,
// and their error rates must be the same order of magnitude.
func TestScaledMatchesFullFidelity(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation skipped in -short")
	}
	const n = 400
	wl := workload.DefaultConfig()
	wl.MeanLifetime = 20 * des.Minute

	// Full fidelity.
	full := NewCluster(ClusterConfig{Core: core.DefaultConfig(), Seed: 77})
	full.WarmStart(n, wl, 2)
	ch := NewChurn(full, ChurnConfig{Workload: wl, TargetPopulation: n, CrashFraction: 0.5})
	ch.Start()
	full.Run(40 * des.Minute)
	var fullL0, fullJoined int
	var fullErr float64
	for _, sn := range full.Alive() {
		if !sn.Node.Joined() {
			continue
		}
		fullJoined++
		if sn.Node.Level() == 0 {
			fullL0++
		}
		fullErr += full.Audit(sn).Rate()
	}
	fullErr /= float64(fullJoined)
	fullShare := float64(fullL0) / float64(fullJoined)

	// Scaled.
	cfg := DefaultShardedScaledConfig(n, 77, 1)
	cfg.Workload = wl
	s := NewShardedScaled(cfg)
	s.Run(40 * des.Minute)
	scaledShare := shareLevel0(s.LevelCounts())
	var scaledErr float64
	{
		var agg float64
		var cnt int
		for _, a := range s.ErrorRates(0) {
			if a.N() > 0 {
				agg += a.Mean() * float64(a.N())
				cnt += int(a.N())
			}
		}
		scaledErr = agg / float64(cnt)
	}

	if math.Abs(fullShare-scaledShare) > 0.25 {
		t.Fatalf("level-0 share disagrees: full %.2f vs scaled %.2f", fullShare, scaledShare)
	}
	// The full-fidelity error includes mechanisms the scaled model folds
	// into one constant (retries, probe latency, join windows); same
	// order of magnitude is the bar.
	if fullErr > 30*scaledErr || (scaledErr > 30*fullErr && fullErr > 0) {
		t.Fatalf("error rates diverge: full %.5f vs scaled %.5f", fullErr, scaledErr)
	}
}

func TestMulticastDelayMatchesPaperModel(t *testing.T) {
	if testing.Short() {
		t.Skip("delay experiment skipped in -short")
	}
	r := MeasureMulticastDelay(96, 3, 5)
	logN := math.Log2(96)
	model := 1.5 * logN
	mean := r.Completion.Mean()
	// The paper prices a step at 1 s forwarding + ~0.5 s latency. Random
	// 128-bit IDs add prefix-collision slack beyond log2 N steps; accept
	// [0.5x, 3x] of the model.
	if mean < 0.5*model || mean > 3*model {
		t.Fatalf("mean completion %.1f s, model %.1f s", mean, model)
	}
	if r.PerDeliver.N() == 0 {
		t.Fatal("no deliveries observed")
	}
	med := r.PerDeliver.Quantile(0.5)
	if med <= 0 || med > mean {
		t.Fatalf("median delivery %.2f s inconsistent with completion %.2f s", med, mean)
	}
	if DelayTable(r).Render() == "" {
		t.Fatal("empty delay table")
	}
}

func TestRunCommonFullShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-mode figure run skipped in -short")
	}
	wl := workload.DefaultConfig()
	wl.MeanLifetime = 12 * des.Minute // compress so churn is meaningful
	r := RunCommonFull(250, wl, 30, 15*des.Minute, 15*des.Minute)
	if r.Population < 150 {
		t.Fatalf("population collapsed: %d", r.Population)
	}
	// Peer-list sizes must track N/2^l like the scaled mode's (figure 6
	// shape), at least for the populated strong levels.
	if r.ListSizes[0].N() > 0 {
		want := float64(r.Population)
		got := r.ListSizes[0].Mean()
		if got < 0.7*want || got > 1.05*want {
			t.Fatalf("level-0 list size %.0f vs population %d", got, r.Population)
		}
	}
	// Errors must be small and the bandwidth meters alive.
	if e := r.MeanErrorRate(); e > 0.15 {
		t.Fatalf("full-mode error rate %.3f", e)
	}
	if r.InBps[0].N() > 0 && r.InBps[0].Mean() <= 0 {
		t.Fatal("input meters read zero at level 0")
	}
	// The same tables must render from full-mode results.
	if Fig5Table(r).Render() == "" || Fig8Table(r).Render() == "" {
		t.Fatal("full-mode tables failed to render")
	}
}

func TestMillionNodeExtension(t *testing.T) {
	if testing.Short() {
		t.Skip("million-node run skipped in -short")
	}
	// Beyond the paper's 100k: the figure-9 trend must continue — the
	// level-0 share keeps falling and more levels open up, while the
	// error rate stays in the sub-percent regime (it grows only with
	// log2 N).
	s := NewShardedScaled(DefaultShardedScaledConfig(1000000, 1, 1))
	s.Run(20 * des.Minute)
	if pop := s.Population(); pop < 950000 || pop > 1050000 {
		t.Fatalf("population drifted to %d", pop)
	}
	counts := s.LevelCounts()
	if share := shareLevel0(counts); share > 0.40 {
		t.Fatalf("level-0 share %.2f at 1M; must be well below the 100k value", share)
	}
	if len(counts) < 8 {
		t.Fatalf("only %d levels at 1M nodes", len(counts))
	}
	var agg float64
	var n int64
	for _, a := range s.ErrorRates(300) {
		if a.N() > 0 {
			agg += a.Mean() * float64(a.N())
			n += a.N()
		}
	}
	if err := agg / float64(n); err > 0.02 {
		t.Fatalf("1M-node error rate %.4f", err)
	}
}

func TestFig5StableAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep skipped in -short")
	}
	// The headline level-0 share must be a property of the workload, not
	// of one lucky seed.
	opt := CommonOptions{Warm: 10 * des.Minute, Measure: 10 * des.Minute, Instants: 3, Sample: 300}
	var shares []float64
	for seed := uint64(100); seed < 104; seed++ {
		r := RunCommon(100000, 1.0, seed, opt)
		shares = append(shares, shareLevel0(r.LevelCounts))
	}
	min, max := shares[0], shares[0]
	for _, s := range shares {
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	if max-min > 0.05 {
		t.Fatalf("level-0 share varies too much across seeds: %v", shares)
	}
	if min < 0.5 {
		t.Fatalf("some seed broke the majority claim: %v", shares)
	}
}
