// Command pwsim reproduces the paper's evaluation (§5): every figure is
// an experiment id, and each run prints the corresponding table.
//
//	pwsim -experiment fig5                 # node distribution, common 100k run
//	pwsim -experiment fig9 -scales 5000,20000,100000
//	pwsim -experiment fig12 -rates 0.1,0.5,1,2,10
//	pwsim -experiment intro                # §1/§2 probing-vs-multicast economics
//	pwsim -experiment mcast -n 64          # §4.2 multicast properties (full fidelity)
//	pwsim -experiment sharded -shards 8 -digest   # common run on the sharded SoA engine
//	pwsim -experiment million -shards 8    # seeded 1M-node churn run
//	pwsim -experiment all                  # everything
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"peerwindow/internal/baseline"
	"peerwindow/internal/core"
	"peerwindow/internal/des"
	"peerwindow/internal/metrics"
	"peerwindow/internal/shard"
	"peerwindow/internal/sim"
	"peerwindow/internal/trace"
	"peerwindow/internal/wire"
	"peerwindow/internal/workload"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "fig5..fig12, common, fullcommon, sharded, million, intro, mcast, delay, split, or all")
		n          = flag.Int("n", 100000, "system scale for the common experiment")
		seed       = flag.Uint64("seed", 1, "random seed")
		warmMin    = flag.Int("warm", 30, "settle time before measuring (virtual minutes)")
		measureMin = flag.Int("measure", 30, "measurement window (virtual minutes)")
		rate       = flag.Float64("rate", 1.0, "Lifetime_Rate for the common experiment")
		scalesFlag = flag.String("scales", "5000,10000,20000,50000,100000", "scales for fig9/fig10")
		ratesFlag  = flag.String("rates", "0.1,0.2,0.5,1,2,5,10", "lifetime rates for fig11/fig12")
		spansFile  = flag.String("spans", "", "write causal-span JSONL here (mcast experiment; feed to pwtrace)")
		shards     = flag.Int("shards", 1, "engine shards for sharded/million (power of two in [1,256])")
		workers    = flag.Int("workers", 0, "worker goroutines driving shards (0 = GOMAXPROCS)")
		digest     = flag.Bool("digest", false, "print the end-state digest (determinism checks across -shards)")
	)
	flag.Parse()

	opt := sim.CommonOptions{
		Warm:    des.Time(*warmMin) * des.Minute,
		Measure: des.Time(*measureMin) * des.Minute,
	}

	switch *experiment {
	case "fig5", "fig6", "fig7", "fig8", "common":
		r := sim.RunCommon(*n, *rate, *seed, opt)
		switch *experiment {
		case "fig5":
			fmt.Println(sim.Fig5Table(r).Render())
		case "fig6":
			fmt.Println(sim.Fig6Table(r).Render())
		case "fig7":
			fmt.Println(sim.Fig7Table(r).Render())
		case "fig8":
			fmt.Println(sim.Fig8Table(r).Render())
		default:
			printCommon(r)
		}
	case "fig9", "fig10":
		rs := sim.RunScales(parseInts(*scalesFlag), *seed, opt)
		if *experiment == "fig9" {
			fmt.Println(sim.Fig9Table(rs).Render())
		} else {
			fmt.Println(sim.Fig10Table(rs).Render())
		}
	case "fig11", "fig12":
		rr := sim.RunLifetimeRates(*n, parseFloats(*ratesFlag), *seed, opt)
		if *experiment == "fig11" {
			fmt.Println(sim.Fig11Table(rr).Render())
		} else {
			fmt.Println(sim.Fig12Table(rr).Render())
		}
	case "sharded":
		r, s := sim.RunCommonSharded(*n, *rate, *seed, *shards, *workers, opt)
		printCommon(r)
		fmt.Println(speedupLine(s.DriverStats(), *shards))
		if *digest {
			fmt.Printf("digest %016x\n", s.Digest())
		}
	case "million":
		mn := *n
		if mn < 1000000 {
			mn = 1000000
		}
		fmt.Println(millionTable(mn, *rate, *seed, *shards, *workers, opt, *digest).Render())
	case "intro":
		fmt.Println(introTable().Render())
	case "mcast":
		fmt.Println(mcastTable(*n, *seed, *spansFile).Render())
	case "fullcommon":
		fn := *n
		if fn > 1500 {
			// Full fidelity: peer lists are O(N) per node. With shared
			// chunks a held pointer costs about 28 B of heap after a
			// 1,000-node warm start and 60 B after cluster_churn's 8
			// virtual minutes (TestClusterHeapPerHeldPointer*).
			fn = 1500
		}
		wl := workloadForFull()
		r := sim.RunCommonFull(fn, wl, *seed,
			des.Time(*warmMin)*des.Minute, des.Time(*measureMin)*des.Minute)
		printCommon(r)
	case "split":
		fmt.Println(splitTable(*seed).Render())
	case "delay":
		dn := *n
		if dn > 128 {
			dn = 128 // full fidelity
		}
		fmt.Println(sim.DelayTable(sim.MeasureMulticastDelay(dn, 5, *seed)).Render())
	case "all":
		r := sim.RunCommon(*n, *rate, *seed, opt)
		printCommon(r)
		rs := sim.RunScales(parseInts(*scalesFlag), *seed, opt)
		fmt.Println(sim.Fig9Table(rs).Render())
		fmt.Println(sim.Fig10Table(rs).Render())
		rr := sim.RunLifetimeRates(*n, parseFloats(*ratesFlag), *seed, opt)
		fmt.Println(sim.Fig11Table(rr).Render())
		fmt.Println(sim.Fig12Table(rr).Render())
		fmt.Println(introTable().Render())
		mn := *n
		if mn > 64 {
			mn = 64
		}
		fmt.Println(mcastTable(mn, *seed, *spansFile).Render())
		fmt.Println(sim.DelayTable(sim.MeasureMulticastDelay(96, 5, *seed)).Render())
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		flag.Usage()
		os.Exit(2)
	}
}

// millionTable runs the common experiment at million-node scale on the
// sharded struct-of-arrays simulator and reports throughput and memory
// alongside the level census — a scale a heap object per node could not
// reach in RAM.
func millionTable(n int, rate float64, seed uint64, shards, workers int, opt sim.CommonOptions, digest bool) *metrics.Table {
	cfg := sim.DefaultShardedScaledConfig(n, seed, shards)
	cfg.Workers = workers
	cfg.Workload.LifetimeRate = rate
	build0 := time.Now()
	s := sim.NewShardedScaled(cfg)
	buildWall := time.Since(build0)
	if opt.Warm == 0 {
		opt.Warm = 30 * des.Minute
	}
	if opt.Measure == 0 {
		opt.Measure = 30 * des.Minute
	}
	run0 := time.Now()
	s.Run(opt.Warm)
	s.ResetTraffic()
	s.Run(opt.Measure)
	runWall := time.Since(run0)
	events := s.EventsExecuted()
	bytes, nodes := s.MemoryFootprint()

	t := metrics.NewTable(
		fmt.Sprintf("Million-node churn run (sharded SoA, N=%d, shards=%d)", n, shards),
		"metric", "value")
	t.AddRow("population", s.Population())
	t.AddRow("virtual time", (opt.Warm + opt.Measure).String())
	t.AddRow("build wall time", buildWall.Round(time.Millisecond).String())
	t.AddRow("run wall time", runWall.Round(time.Millisecond).String())
	t.AddRow("events executed", events)
	t.AddRow("events/sec (wall)", fmt.Sprintf("%.0f", float64(events)/runWall.Seconds()))
	st := s.DriverStats()
	t.AddRow("driver windows", st.Windows)
	t.AddRow("events / critical path", fmt.Sprintf("%d / %d", st.Events, st.CriticalPath))
	t.AddRow(fmt.Sprintf("max speed-up at %d shards", shards), fmt.Sprintf("%.2fx", st.MaxSpeedup()))
	t.AddRow("node-state bytes/node", fmt.Sprintf("%.1f", float64(bytes)/float64(nodes)))
	levels := s.LevelCounts()
	for l, c := range levels {
		if c > 0 {
			t.AddRow(fmt.Sprintf("level %d nodes", l), c)
		}
	}
	if digest {
		t.AddRow("digest", fmt.Sprintf("%016x", s.Digest()))
	}
	return t
}

// speedupLine renders the shard driver's counts as the host-independent
// bound they give: total events over the critical path (the busiest
// shard of every window, summed) is the most K shards can gain.
func speedupLine(st shard.Stats, shards int) string {
	return fmt.Sprintf("%d events / %d critical path over %d windows = max speed-up %.2fx at %d shards",
		st.Events, st.CriticalPath, st.Windows, st.MaxSpeedup(), shards)
}

// workloadForFull compresses lifetimes so a short full-fidelity run sees
// meaningful churn.
func workloadForFull() workload.Config {
	wl := workload.DefaultConfig()
	wl.MeanLifetime = 15 * des.Minute
	return wl
}

func printCommon(r sim.CommonResult) {
	fmt.Println(sim.Fig5Table(r).Render())
	fmt.Println(sim.Fig6Table(r).Render())
	fmt.Println(sim.Fig7Table(r).Render())
	fmt.Println(sim.Fig8Table(r).Render())
}

// introTable reproduces the §1/§2 economics: explicit probing versus
// PeerWindow, with the paper's own example numbers.
func introTable() *metrics.Table {
	hb := baseline.DefaultHeartbeatParams()
	t := metrics.NewTable("Intro — node collection economics (paper §1/§2 examples)",
		"metric", "explicit probing", "peerwindow")
	t.AddRow("wasted probes (2h lifetime, 30s probes)",
		fmt.Sprintf("%.2f%%", 100*hb.WastedFraction()), "0% (event-driven)")
	t.AddRow("cost per 1000 pointers (bit/s)",
		fmt.Sprintf("%.0f", hb.CostPer1000()),
		fmt.Sprintf("%.0f", baseline.PeerWindowCostPer1000(des.Hour, 3, 1, 1000)))
	hbHour := hb
	hbHour.MeanLifetime = des.Hour
	c := baseline.CompareIntro(hbHour, 5000, 3, 1, 1000)
	t.AddRow("pointers within a 5 kbit/s budget (1h lifetime)",
		fmt.Sprintf("%.0f", c.HeartbeatPointers),
		fmt.Sprintf("%.0f", c.PeerWindowPointers))
	t.AddRow("advantage", "1×", fmt.Sprintf("%.1f×", c.Advantage))

	// Gossip vs tree dissemination (the §2 design alternative).
	gs := &baseline.GossipSim{Params: baseline.DefaultGossipParams(), Members: 4096}
	gs.Run(1)
	msgs, r, complete := baseline.TreeDissemination(4096, gs.Params.StepCost)
	t.AddRow("dissemination redundancy (4096 members)",
		fmt.Sprintf("gossip %.2f msg/member", gs.Redundancy),
		fmt.Sprintf("tree %.2f msg/member", r))
	t.AddRow("dissemination messages",
		fmt.Sprintf("%d", gs.Messages), fmt.Sprintf("%d", msgs))
	t.AddRow("dissemination completion",
		gs.CompleteAt.String(), complete.String())

	// One-hop DHT (§6 related work): every member pays the full event
	// stream; PeerWindow's weak nodes pay only their budget.
	oh := baseline.DefaultOneHopParams(100000)
	wl := workload.DefaultConfig()
	t.AddRow("100k-node membership cost for a weak node",
		fmt.Sprintf("one-hop DHT %.0f bit/s", oh.CostPerNode()),
		fmt.Sprintf("peerwindow %.0f bit/s (its budget)", wl.ThresholdFloor))
	frac := oh.AffordableFraction(func(q float64) float64 {
		return wl.Threshold(wl.Bandwidth.Quantile(q))
	})
	t.AddRow("nodes that can afford full membership",
		fmt.Sprintf("%.0f%%", 100*frac), "100% (levels adapt)")
	return t
}

// mcastTable measures the §4.2 multicast properties on a full-fidelity
// cluster: coverage, step counts, out-degrees. When spansFile is set,
// the causal spans of the measured window are exported as JSONL for
// pwtrace.
func mcastTable(n int, seed uint64, spansFile string) *metrics.Table {
	if n < 8 {
		n = 8
	}
	if n > 256 {
		n = 256 // full fidelity: keep it small
	}
	// Every node records spans from the start, so the measured multicast is
	// traced and its deliver spans carry each receiver's step.
	spans := trace.NewSpanBuffer(64 * n)
	c := sim.NewCluster(sim.ClusterConfig{Core: core.DefaultConfig(), Seed: seed, Spans: spans})
	first := c.AddNode(1e9)
	c.Bootstrap(first)
	for i := 1; i < n; i++ {
		sn := c.AddNode(1e9)
		if err := c.Join(sn, c.RandomJoined(sn), des.Hour); err != nil {
			fmt.Fprintf(os.Stderr, "join %d failed: %v\n", i, err)
			os.Exit(1)
		}
		c.Run(30 * des.Second)
	}
	c.Run(2 * des.Minute)
	type tally struct{ delivered, forwards uint64 }
	before := make(map[*sim.SimNode]tally)
	for _, sn := range c.Alive() {
		m := sn.Node.MetricsSnapshot().Counters
		before[sn] = tally{delivered: m[core.MetricMulticastDelivered], forwards: m[core.MetricMulticastForwards]}
	}
	evBefore := c.SentByType[wire.MsgEvent]
	mark := spans.Total()
	subject := c.Alive()[0]
	subject.Node.SetInfo([]byte("probe"))
	c.Run(2 * des.Minute)
	window, _, missed := spans.SnapshotSince(mark)
	if missed > 0 {
		fmt.Fprintf(os.Stderr, "spans: buffer evicted %d spans of the measured window\n", missed)
		os.Exit(1)
	}
	if spansFile != "" {
		f, err := os.Create(spansFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spans: %v\n", err)
			os.Exit(1)
		}
		werr := trace.WriteSpans(f, window)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "spans: %v\n", werr)
			os.Exit(1)
		}
	}

	maxStep := 0
	for _, s := range window {
		if s.Kind == trace.SpanDeliver && s.Step > maxStep {
			maxStep = s.Step
		}
	}
	delivered := 0
	var maxOut uint64
	zeroOut := 0
	for _, sn := range c.Alive() {
		m := sn.Node.MetricsSnapshot().Counters
		if m[core.MetricMulticastDelivered] > before[sn].delivered {
			delivered++
		}
		out := m[core.MetricMulticastForwards] - before[sn].forwards
		if out > maxOut {
			maxOut = out
		}
		if out == 0 {
			zeroOut++
		}
	}
	t := metrics.NewTable(fmt.Sprintf("Multicast properties (§4.2), full fidelity, N=%d", n),
		"property", "value", "paper expectation")
	t.AddRow("audience reached", fmt.Sprintf("%d/%d", delivered, n-1), "all (property 3)")
	t.AddRow("event messages", c.SentByType[wire.MsgEvent]-evBefore, fmt.Sprintf("%d (r=1)", n-1))
	t.AddRow("max step", maxStep, "~log2 N")
	t.AddRow("root out-degree", maxOut, "~log2 N (property 2)")
	t.AddRow("zero-out-degree receivers", zeroOut, "many (leaves)")
	return t
}

// splitTable demonstrates §4.4: a system with no level-0 nodes operates
// as independent parts, each with its own top nodes, and events stay
// inside their part.
func splitTable(seed uint64) *metrics.Table {
	coreCfg := core.DefaultConfig()
	c := sim.NewCluster(sim.ClusterConfig{Core: coreCfg, Seed: seed})
	const n = 32
	type part struct {
		nodes []*sim.SimNode
	}
	var parts [2]part
	for i := 0; i < n; i++ {
		sn := c.AddNode(1e9)
		b := sn.Node.Self().ID.Bit(0)
		parts[b].nodes = append(parts[b].nodes, sn)
	}
	for b := range parts {
		members := parts[b].nodes
		var tops []wire.Pointer
		for i := 0; i < len(members) && i < coreCfg.TopListSize; i++ {
			self := members[i].Node.Self()
			self.Level = 1
			tops = append(tops, self)
		}
		for _, sn := range members {
			var peers []wire.Pointer
			for _, other := range members {
				if other != sn {
					self := other.Node.Self()
					self.Level = 1
					peers = append(peers, self)
				}
			}
			sn.Node.Restore(1, peers, tops)
		}
	}
	c.Run(2 * des.Minute)
	// An info change in part 0.
	before := map[*sim.SimNode]uint64{}
	for _, sn := range c.Alive() {
		before[sn] = sn.Node.MetricsSnapshot().Counters[core.MetricMulticastDelivered]
	}
	parts[0].nodes[0].Node.SetInfo([]byte("part0"))
	c.Run(2 * des.Minute)
	informed := [2]int{}
	for b := range parts {
		for _, sn := range parts[b].nodes {
			if sn.Node.MetricsSnapshot().Counters[core.MetricMulticastDelivered] > before[sn] {
				informed[b]++
			}
		}
	}
	t := metrics.NewTable(fmt.Sprintf("Split system (§4.4): two level-1 parts, N=%d", n),
		"property", "part 0*", "part 1*")
	t.AddRow("members", len(parts[0].nodes), len(parts[1].nodes))
	t.AddRow("informed by a part-0 event", informed[0], informed[1])
	t.AddRow("expected", fmt.Sprintf("%d (all but origin)", len(parts[0].nodes)-1), "0 (independent)")
	return t
}

func parseInts(s string) []int {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 1 {
			fmt.Fprintf(os.Stderr, "bad scale %q\n", p)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func parseFloats(s string) []float64 {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || v <= 0 {
			fmt.Fprintf(os.Stderr, "bad rate %q\n", p)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}
