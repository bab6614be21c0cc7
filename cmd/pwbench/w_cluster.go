package main

import (
	"fmt"
	"runtime"
	"time"

	"peerwindow/internal/core"
	"peerwindow/internal/des"
	"peerwindow/internal/metrics"
	"peerwindow/internal/sim"
	"peerwindow/internal/trace"
	"peerwindow/internal/wire"
	"peerwindow/internal/workload"
)

// cluster_churn: the full-fidelity simulator under Gnutella churn, then
// a join wave into a second converged cluster. core.HandleMessage,
// multicast, acks and probes, des timers and wire.SizeBits do the work,
// single-threaded and without sockets: the per-core cost of the
// protocol. The analytic simulators are bypassed.

var msgTypes = func() []wire.MsgType {
	var ts []wire.MsgType
	for t := wire.MsgEvent; t <= wire.MsgTopListResp; t++ {
		ts = append(ts, t)
	}
	return ts
}()

func runCluster(c *runCtx) sample {
	s := newSample()
	sz := c.sz
	root := c.rec.begin(0, "cluster_churn")
	defer c.rec.end(root)
	unit := beginWindow()

	// Set-up: a converged population with churn running, settled long
	// enough for every periodic timer to have fired once.
	cfg := sim.ClusterConfig{Core: sim.DefaultFullCore(), Seed: c.seed}
	var spans *trace.SpanBuffer
	if c.traced() {
		spans = trace.NewSpanBuffer(1 << 18)
		cfg.Spans = spans
	}
	wl := workload.DefaultConfig()
	t0 := time.Now()
	cl := sim.NewCluster(cfg)
	c.rec.do(root, "sim.Cluster.WarmStart", func(int) { cl.WarmStart(sz.clusterN, wl, 2) })
	warmstart := time.Since(t0)
	churn := sim.NewChurn(cl, sim.ChurnConfig{Workload: wl, TargetPopulation: sz.clusterN, CrashFraction: 0.5})
	churn.Start()
	c.rec.do(root, "sim.Cluster.Run/settle", func(int) { cl.Run(sz.clusterSettle) })
	setup := time.Since(t0)

	// Measured window: a fixed span of virtual time, one span per
	// virtual minute.
	runtime.GC() // the set-up's garbage is not the window's to collect
	msgs0, bits0, ev0 := cl.MessagesSent, cl.BitsSent, cl.Engine.Executed()
	byType0 := map[wire.MsgType]uint64{}
	for t, n := range cl.SentByType {
		byType0[t] = n
	}
	before := clusterCounters(cl)
	// One sample per repeat: consecutive stretches of the window carry
	// different message mixes (nodes refresh every two virtual minutes,
	// all in step after a warm start, and churn comes in bursts), so
	// chunk rates would fall into several clusters and their median
	// would hop between them. Spans stay per virtual minute.
	w := beginWindow()
	for left := sz.clusterMeasure; left > 0; left -= des.Minute {
		c.rec.do(root, "sim.Cluster.Run", func(int) { cl.Run(des.Minute) })
	}
	u := w.end()
	msgs := cl.MessagesSent - msgs0
	bits := cl.BitsSent - bits0
	events := cl.Engine.Executed() - ev0
	after := clusterCounters(cl)

	// Oracle audit over every joined node.
	var errAgg, held metrics.Agg
	t0 = time.Now()
	c.rec.do(root, "sim.Cluster.Audit", func(int) {
		for _, sn := range cl.Alive() {
			if !sn.Node.Joined() {
				continue
			}
			errAgg.Add(cl.Audit(sn).Rate())
			held.Add(float64(sn.Node.Peers().Len()))
		}
	})
	audit := time.Since(t0)
	churn.Stop()

	// Second phase: a wave of joins into a converged cluster without
	// churn — bulk transfer and peer-list merges instead of multicast.
	wave := runJoinWave(c, root)
	total := unit.end()

	// Operations are the protocol messages and the wave's joins. Joins
	// the churn process starts are part of the input, like its crashes:
	// one fails whenever the process crashes the joiner's bootstrap
	// mid-join, which says nothing about the code under test.
	s.ops = int(msgs) + sz.waveJoins
	s.failed = wave.failed
	s.fingerprint = fmt.Sprintf("msgs=%d bits=%d wave_msgs=%d", msgs, bits, wave.msgs)
	s.add("_unit_wall_s", (setup + u.wall + audit + wave.wall).Seconds())
	s.add("setup_s", setup.Seconds())
	s.add("ops_per_s", float64(msgs)/u.wall.Seconds())
	s.add("allocs_per_op", float64(u.mallocs)/float64(msgs))
	s.add("cpu_us_per_op", u.cpu()*1e6/float64(msgs))
	s.add("sim.cluster.us_per_msg", us(u.wall)/float64(msgs))
	s.add("op_p50_ms", quantile(durationsMS(wave.joins), 0.5))
	s.add("sim.cluster.join_wave_ms", ms(wave.wall))
	s.add("cpu_s", total.cpu())
	s.add("window_error_pct", 100*errAgg.Mean())
	// Maintenance bandwidth the way Fig 8 normalises it: bits sent per
	// node-second, per 1000 pointers held.
	nodeSeconds := float64(errAgg.N()) * sz.clusterMeasure.Seconds()
	if nodeSeconds > 0 && held.Mean() > 0 {
		s.add("maint_bps_per_1000ptr", float64(bits)/nodeSeconds/held.Mean()*1000)
	}
	s.add("sim.cluster.warmstart_ms", ms(warmstart))
	s.add("sim.cluster.des_events_per_msg", float64(events)/float64(msgs))
	s.add("sim.cluster.bits_per_msg", float64(bits)/float64(msgs))
	for _, t := range msgTypes {
		s.add("sim.cluster.msg_share."+t.String(), float64(cl.SentByType[t]-byType0[t])/float64(msgs))
	}
	s.add("sim.cluster.join_wave_allocs", float64(wave.mallocs))
	s.add("sim.cluster.audit_ms", ms(audit))
	addProtocolRatios(&s, before, after)

	if spans != nil {
		st := trace.Aggregate(trace.BuildTrees(spans.Snapshot()))
		s.add("core.multicast.depth_mean", st.MeanDepth)
		s.add("core.multicast.root_out_degree", st.MeanRootOut)
		s.check(st.Trees > 0, "traced repeat reconstructed no multicast tree")
	}

	unknown := cl.NetMetrics().Counters[metrics.MetricNetSendUnknownDest]
	s.check(unknown == 0, "net.send.unknown_dest = %d, want 0", unknown)
	s.check(msgs > 0, "no protocol message was sent")
	s.check(errAgg.N() > int64(sz.clusterN/2), "only %d joined nodes to audit", errAgg.N())
	// Crashes take a probe round to detect, so a few stale pointers are
	// expected at any instant; a double-digit error rate is a protocol
	// fault.
	s.check(errAgg.Mean() < 0.05, "oracle audit: mean window error %.3f%%, want < 5%%", 100*errAgg.Mean())
	return s
}

// clusterCounters sums the protocol registries of every node ever added.
func clusterCounters(cl *sim.Cluster) map[string]uint64 {
	var total metrics.Snapshot
	for _, sn := range cl.Nodes() {
		total.Merge(sn.Node.Metrics().Snapshot())
	}
	return total.Counters
}

// addProtocolRatios derives the waste ratios of the multicast, ack and
// probe machinery from registry counter deltas.
func addProtocolRatios(s *sample, before, after map[string]uint64) {
	d := func(name string) float64 { return float64(after[name] - before[name]) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	s.add("core.multicast.dup_ratio", ratio(d(core.MetricMulticastDuplicates), d(core.MetricMulticastDelivered)))
	s.add("core.multicast.redirect_ratio", ratio(d(core.MetricMulticastRedirects), d(core.MetricMulticastForwards)))
	s.add("core.ack.retry_ratio", ratio(d(core.MetricAckRetries), d(core.MetricMulticastForwards)))
	alarms := d(core.MetricFailureFalseAlarms)
	s.add("core.probe.false_alarm_ratio", ratio(alarms, alarms+d(core.MetricFailureVerified)))
}

type waveResult struct {
	wall    time.Duration
	joins   []time.Duration // host time of each join
	mallocs uint64
	msgs    uint64
	failed  int
}

// runJoinWave joins newcomers one after another into a converged,
// churn-free cluster and lets the overlay absorb them (the shape of
// BenchmarkClusterJoinWave).
func runJoinWave(c *runCtx, parent int) waveResult {
	sz := c.sz
	wl := workload.DefaultConfig()
	wl.MeanLifetime = 10 * des.Hour
	cl := sim.NewCluster(sim.ClusterConfig{Core: core.DefaultConfig(), Seed: c.seed})
	c.rec.do(parent, "sim.Cluster.WarmStart/wave", func(int) { cl.WarmStart(sz.waveBase, wl, 2) })
	runtime.GC()
	var r waveResult
	msgs0 := cl.MessagesSent
	w := beginWindow()
	c.rec.do(parent, "sim.Cluster.Join/wave", func(int) {
		for j := 0; j < sz.waveJoins; j++ {
			t0 := time.Now()
			sn := cl.AddNode(1e9)
			if err := cl.Join(sn, cl.RandomJoined(sn), des.Hour); err != nil {
				r.failed++
			}
			r.joins = append(r.joins, time.Since(t0))
		}
		cl.Run(2 * des.Minute)
	})
	u := w.end()
	r.wall, r.mallocs, r.msgs = u.wall, u.mallocs, cl.MessagesSent-msgs0
	return r
}
