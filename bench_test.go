package peerwindow

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (§5) plus the §1/§2 economics and the DESIGN.md
// ablations. Run all of it with:
//
//	go test -bench=. -benchmem
//
// Each figure bench executes one full experiment per iteration and
// reports the headline quantity of that figure as a custom metric, so
// `-benchtime=1x` regenerates the whole evaluation quickly and the
// printed metrics are directly comparable to the paper (see
// EXPERIMENTS.md for the side-by-side reading).

import (
	"testing"

	"peerwindow/internal/baseline"
	"peerwindow/internal/core"
	"peerwindow/internal/des"
	"peerwindow/internal/sim"
	"peerwindow/internal/wire"
	"peerwindow/internal/workload"
)

// benchOpt keeps figure benches affordable while preserving the shapes.
func benchOpt() sim.CommonOptions {
	return sim.CommonOptions{
		Warm:     20 * des.Minute,
		Measure:  20 * des.Minute,
		Instants: 5,
		Sample:   500,
	}
}

func shareL0(counts []int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	return float64(counts[0]) / float64(total)
}

// BenchmarkFig5NodeDistribution — figure 5: node distribution per level
// in the common 100,000-node system. Paper: >50 % at level 0.
func BenchmarkFig5NodeDistribution(b *testing.B) {
	var share float64
	var levels int
	for i := 0; i < b.N; i++ {
		r := sim.RunCommon(100000, 1.0, uint64(i+1), benchOpt())
		share = shareL0(r.LevelCounts)
		levels = r.MaxLevelUsed() + 1
	}
	b.ReportMetric(share, "share_level0")
	b.ReportMetric(float64(levels), "levels")
}

// BenchmarkFig6PeerListSize — figure 6: per-level peer-list sizes
// (≈ N/2^l, min ≈ max).
func BenchmarkFig6PeerListSize(b *testing.B) {
	var sizeL0, spread float64
	for i := 0; i < b.N; i++ {
		r := sim.RunCommon(100000, 1.0, uint64(i+1), benchOpt())
		a := r.ListSizes[0]
		sizeL0 = a.Mean()
		if a.Mean() > 0 {
			spread = (a.Max() - a.Min()) / a.Mean()
		}
	}
	b.ReportMetric(sizeL0, "size_level0")
	b.ReportMetric(spread, "minmax_spread")
}

// BenchmarkFig7ErrorRate — figure 7: per-level peer-list error rate.
// Paper: < 0.5 %, stronger levels fewer errors.
func BenchmarkFig7ErrorRate(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		r := sim.RunCommon(100000, 1.0, uint64(i+1), benchOpt())
		mean = r.MeanErrorRate()
	}
	b.ReportMetric(mean*100, "error_pct")
}

// BenchmarkFig8Bandwidth — figure 8: per-level maintenance bandwidth.
// Paper: ~500 bit/s per 1000 pointers; output concentrated at levels
// 0–1.
func BenchmarkFig8Bandwidth(b *testing.B) {
	var per1000, outL0 float64
	for i := 0; i < b.N; i++ {
		r := sim.RunCommon(100000, 1.0, uint64(i+1), benchOpt())
		if r.ListSizes[0].Mean() > 0 {
			per1000 = r.InBps[0].Mean() / r.ListSizes[0].Mean() * 1000
		}
		outL0 = r.OutBps[0].Mean()
	}
	b.ReportMetric(per1000, "in_bps_per_1000ptr")
	b.ReportMetric(outL0, "out_bps_level0")
}

// BenchmarkFig9Scalability — figure 9: level distribution vs scale.
// Paper: at 5000 nodes (almost) all at level 0; more levels as N grows.
func BenchmarkFig9Scalability(b *testing.B) {
	var s5, s100 float64
	for i := 0; i < b.N; i++ {
		rs := sim.RunScales([]int{5000, 20000, 100000}, uint64(i+1), benchOpt())
		s5 = shareL0(rs[0].Common.LevelCounts)
		s100 = shareL0(rs[2].Common.LevelCounts)
	}
	b.ReportMetric(s5, "share_level0_5k")
	b.ReportMetric(s100, "share_level0_100k")
}

// BenchmarkFig10ErrorVsScale — figure 10: mean error rate vs scale.
// Paper: slight rise.
func BenchmarkFig10ErrorVsScale(b *testing.B) {
	var e5, e100 float64
	for i := 0; i < b.N; i++ {
		rs := sim.RunScales([]int{5000, 100000}, uint64(i+1), benchOpt())
		e5 = rs[0].Common.MeanErrorRate()
		e100 = rs[1].Common.MeanErrorRate()
	}
	b.ReportMetric(e5*100, "error_pct_5k")
	b.ReportMetric(e100*100, "error_pct_100k")
}

// BenchmarkFig11Adaptivity — figure 11: level distribution vs
// Lifetime_Rate. Paper: rate 0.1 yields ~10 levels with ~15 % at level
// 0.
func BenchmarkFig11Adaptivity(b *testing.B) {
	var share01 float64
	var levels01 int
	for i := 0; i < b.N; i++ {
		rr := sim.RunLifetimeRates(100000, []float64{0.1, 1}, uint64(i+1), benchOpt())
		share01 = shareL0(rr[0].Common.LevelCounts)
		levels01 = rr[0].Common.MaxLevelUsed() + 1
	}
	b.ReportMetric(share01, "share_level0_rate01")
	b.ReportMetric(float64(levels01), "levels_rate01")
}

// BenchmarkFig12ErrorVsLifetime — figure 12: error rate vs
// Lifetime_Rate. Paper: inverse proportion; rate 0.1 sits at 1–5 %.
func BenchmarkFig12ErrorVsLifetime(b *testing.B) {
	var ratio, e01 float64
	for i := 0; i < b.N; i++ {
		rr := sim.RunLifetimeRates(100000, []float64{0.1, 1}, uint64(i+1), benchOpt())
		e01 = rr[0].Common.MeanErrorRate()
		if c := rr[1].Common.MeanErrorRate(); c > 0 {
			ratio = e01 / c
		}
	}
	b.ReportMetric(e01*100, "error_pct_rate01")
	b.ReportMetric(ratio, "ratio_vs_common")
}

// BenchmarkIntroProbingVsMulticast — the §1/§2 economics: pointers per
// 5 kbit/s budget under explicit probing versus PeerWindow.
func BenchmarkIntroProbingVsMulticast(b *testing.B) {
	var adv float64
	for i := 0; i < b.N; i++ {
		hb := baseline.DefaultHeartbeatParams()
		hb.MeanLifetime = des.Hour
		c := baseline.CompareIntro(hb, 5000, 3, 1, 1000)
		adv = c.Advantage
		// Confirm the closed form empirically.
		hs := &baseline.HeartbeatSim{Params: hb, Pointers: 200}
		hs.Run(2*des.Hour, uint64(i+1))
		if hs.MeasuredWasted < 0.9 {
			b.Fatalf("probing waste %.3f implausible", hs.MeasuredWasted)
		}
	}
	b.ReportMetric(adv, "peerwindow_advantage_x")
}

// BenchmarkMulticastProperties — §4.2 properties measured on the
// full-fidelity cluster: coverage, r = 1, logarithmic steps.
func BenchmarkMulticastProperties(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := sim.NewCluster(sim.ClusterConfig{Core: core.DefaultConfig(), Seed: uint64(i + 1)})
		first := c.AddNode(1e9)
		c.Bootstrap(first)
		const n = 64
		for j := 1; j < n; j++ {
			sn := c.AddNode(1e9)
			if err := c.Join(sn, c.RandomJoined(sn), des.Hour); err != nil {
				b.Fatalf("join: %v", err)
			}
			c.Run(30 * des.Second)
		}
		c.Run(2 * des.Minute)
		evBefore := c.SentByType[wire.MsgEvent]
		c.Alive()[0].Node.SetInfo([]byte("x"))
		c.Run(2 * des.Minute)
		sent := c.SentByType[wire.MsgEvent] - evBefore
		if sent != n-1 {
			b.Fatalf("tree sent %d messages, want %d", sent, n-1)
		}
		b.ReportMetric(float64(sent)/float64(n-1), "redundancy_r")
	}
}

// --- Ablations (DESIGN.md §5) --------------------------------------------

// BenchmarkAblationMulticast — tree versus gossip dissemination: the
// §2 design alternative. Tree r = 1; push gossip pays ~3× per member.
func BenchmarkAblationMulticast(b *testing.B) {
	var gossipR, treeR float64
	for i := 0; i < b.N; i++ {
		gs := &baseline.GossipSim{Params: baseline.DefaultGossipParams(), Members: 4096}
		gs.Run(uint64(i + 1))
		gossipR = gs.Redundancy
		_, treeR, _ = baseline.TreeDissemination(4096, gs.Params.StepCost)
	}
	b.ReportMetric(gossipR, "gossip_msgs_per_member")
	b.ReportMetric(treeR, "tree_msgs_per_member")
}

// BenchmarkAblationFailureDetection — §4.1 ring probing (one heartbeat
// per node) versus probing every neighbour: the cost ratio is the peer
// list size.
func BenchmarkAblationFailureDetection(b *testing.B) {
	hb := baseline.DefaultHeartbeatParams()
	const listSize = 6000
	var allPairs, ring float64
	for i := 0; i < b.N; i++ {
		allPairs = float64(listSize) * hb.CostPerPointer()
		ring = 1 * hb.CostPerPointer() // one right-neighbour probe
	}
	b.ReportMetric(allPairs, "probe_all_bps")
	b.ReportMetric(ring, "probe_ring_bps")
	b.ReportMetric(allPairs/ring, "saving_x")
}

// BenchmarkAblationRefresh — §4.6 refresh on/off under silent crashes
// with ring probing disabled: the refresher must bound stale
// accumulation.
func BenchmarkAblationRefresh(b *testing.B) {
	run := func(refresh bool, seed uint64) float64 {
		coreCfg := core.DefaultConfig()
		coreCfg.ProbeInterval = 100 * des.Hour
		coreCfg.RefreshEnabled = refresh
		coreCfg.RefreshFloor = 2 * des.Minute
		c := sim.NewCluster(sim.ClusterConfig{Core: coreCfg, Seed: seed})
		wl := workload.DefaultConfig()
		wl.MeanLifetime = 8 * des.Minute
		const target = 100
		c.WarmStart(target, wl, 2)
		ch := sim.NewChurn(c, sim.ChurnConfig{Workload: wl, TargetPopulation: target, CrashFraction: 0.5})
		ch.Start()
		c.Run(40 * des.Minute)
		stale := 0
		alive := 0
		for _, sn := range c.Alive() {
			if sn.Node.Joined() {
				stale += c.Audit(sn).Stale
				alive++
			}
		}
		if alive == 0 {
			return 0
		}
		return float64(stale) / float64(alive)
	}
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = run(true, uint64(i+1))
		without = run(false, uint64(i+1))
	}
	b.ReportMetric(with, "stale_per_node_with_refresh")
	b.ReportMetric(without, "stale_per_node_without")
}

// BenchmarkAblationReconcile — the post-join anti-entropy pass
// (Config.ReconcileDelay) on/off: it exists to close the join window in
// full-fidelity mode.
func BenchmarkAblationReconcile(b *testing.B) {
	run := func(reconcile bool, seed uint64) float64 {
		coreCfg := core.DefaultConfig()
		if !reconcile {
			coreCfg.ReconcileDelay = 0
		}
		c := sim.NewCluster(sim.ClusterConfig{Core: coreCfg, Seed: seed})
		wl := workload.DefaultConfig()
		wl.MeanLifetime = 15 * des.Minute
		const target = 120
		c.WarmStart(target, wl, 2)
		ch := sim.NewChurn(c, sim.ChurnConfig{Workload: wl, TargetPopulation: target, CrashFraction: 0.5})
		ch.Start()
		c.Run(30 * des.Minute)
		var rate float64
		joined := 0
		for _, sn := range c.Alive() {
			if sn.Node.Joined() {
				rate += c.Audit(sn).Rate()
				joined++
			}
		}
		if joined == 0 {
			return 0
		}
		return rate / float64(joined)
	}
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = run(true, uint64(i+1))
		without = run(false, uint64(i+1))
	}
	b.ReportMetric(with*100, "error_pct_with_reconcile")
	b.ReportMetric(without*100, "error_pct_without")
}

// BenchmarkAblationFidelity — scaled versus full-fidelity execution of
// the same workload: the scaled model must agree on the level-0 share
// while being orders of magnitude cheaper.
func BenchmarkAblationFidelity(b *testing.B) {
	const n = 300
	wl := workload.DefaultConfig()
	wl.MeanLifetime = 20 * des.Minute
	var fullShare, scaledShare float64
	for i := 0; i < b.N; i++ {
		full := sim.NewCluster(sim.ClusterConfig{Core: core.DefaultConfig(), Seed: uint64(i + 1)})
		full.WarmStart(n, wl, 2)
		ch := sim.NewChurn(full, sim.ChurnConfig{Workload: wl, TargetPopulation: n, CrashFraction: 0.5})
		ch.Start()
		full.Run(30 * des.Minute)
		l0, joined := 0, 0
		for _, sn := range full.Alive() {
			if sn.Node.Joined() {
				joined++
				if sn.Node.Level() == 0 {
					l0++
				}
			}
		}
		fullShare = float64(l0) / float64(joined)

		cfg := sim.DefaultShardedScaledConfig(n, uint64(i+1), 1)
		cfg.Workload = wl
		s := sim.NewShardedScaled(cfg)
		s.Run(30 * des.Minute)
		scaledShare = shareL0(s.LevelCounts())
	}
	b.ReportMetric(fullShare, "share_level0_full")
	b.ReportMetric(scaledShare, "share_level0_scaled")
}

// BenchmarkScaled100k measures the scaled simulator's raw throughput:
// one virtual hour of a 100,000-node system per iteration.
func BenchmarkScaled100k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sim.NewShardedScaled(sim.DefaultShardedScaledConfig(100000, uint64(i+1), 1))
		s.Run(des.Hour)
	}
}

// BenchmarkAblationProtocolGossip runs the in-protocol gossip variant
// (core.Config.GossipMulticast) against the tree on identical clusters
// and reports the event-message cost of one dissemination.
func BenchmarkAblationProtocolGossip(b *testing.B) {
	run := func(gossip bool, seed uint64) uint64 {
		coreCfg := core.DefaultConfig()
		coreCfg.GossipMulticast = gossip
		c := sim.NewCluster(sim.ClusterConfig{Core: coreCfg, Seed: seed})
		first := c.AddNode(1e9)
		c.Bootstrap(first)
		const n = 48
		for j := 1; j < n; j++ {
			sn := c.AddNode(1e9)
			if err := c.Join(sn, c.RandomJoined(sn), des.Hour); err != nil {
				b.Fatalf("join: %v", err)
			}
			c.Run(30 * des.Second)
		}
		c.Run(2 * des.Minute)
		before := c.SentByType[wire.MsgEvent]
		c.Alive()[0].Node.SetInfo([]byte("x"))
		c.Run(3 * des.Minute)
		return c.SentByType[wire.MsgEvent] - before
	}
	var tree, gossip uint64
	for i := 0; i < b.N; i++ {
		tree = run(false, uint64(i+1))
		gossip = run(true, uint64(i+1))
	}
	b.ReportMetric(float64(tree), "tree_event_msgs")
	b.ReportMetric(float64(gossip), "gossip_event_msgs")
}

// BenchmarkScaled1M pushes the scaled simulator an order of magnitude
// past the paper: one million nodes, 20 virtual minutes per iteration.
func BenchmarkScaled1M(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		s := sim.NewShardedScaled(sim.DefaultShardedScaledConfig(1000000, uint64(i+1), 1))
		s.Run(20 * des.Minute)
		share = shareL0(s.LevelCounts())
	}
	b.ReportMetric(share, "share_level0_1M")
}
