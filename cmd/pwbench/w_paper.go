package main

import (
	"fmt"
	"runtime"
	"time"

	"peerwindow/internal/des"
	"peerwindow/internal/sim"
)

// paper_scaled: the analytic simulators regenerate the paper's figures
// and then push a million-node population through the sharded engine.
// des, sim.Scaled/ShardedScaled and shard do all the work; core, wire
// and sockets do none. Everything goes through the Run* entry points so
// the workload survives the planned move of the figures onto
// ShardedScaled.

var paperRates = sim.DefaultLifetimeRates()

func runPaper(c *runCtx) sample {
	s := newSample()
	sz := c.sz
	root := c.rec.begin(0, "paper_scaled")
	defer c.rec.end(root)
	unit := beginWindow()
	opt := sim.CommonOptions{Warm: 30 * des.Minute, Measure: 30 * des.Minute}

	// Figures 5–8: the common experiment at the paper's scale.
	var common sim.CommonResult
	t0 := time.Now()
	c.rec.do(root, "sim.RunCommon", func(int) {
		common = sim.RunCommon(sz.commonN, 1, c.seed, opt)
	})
	fig58 := time.Since(t0)

	// Figures 9–10: the scale sweep.
	var scales []sim.ScaleResult
	t0 = time.Now()
	c.rec.do(root, "sim.RunScales", func(int) {
		scales = sim.RunScales(sz.scales, c.seed, opt)
	})
	fig910 := time.Since(t0)

	// Figures 11–12: the lifetime-rate sweep.
	var rates []sim.RateResult
	t0 = time.Now()
	c.rec.do(root, "sim.RunLifetimeRates", func(int) {
		rates = sim.RunLifetimeRates(sz.ratesN, paperRates, c.seed, opt)
	})
	fig1112 := time.Since(t0)
	figures := fig58 + fig910 + fig1112

	// The sharded engine at shards=1, workers=1: set-up is build + warm,
	// the measured window is a fixed span of virtual time.
	sh := runSharded(c, root, 1, 1)
	u := unit.end()
	s.add("_unit_wall_s", (figures + sh.setup + sh.wall).Seconds())

	// Both sweeps run their points in parallel behind one call, so the
	// per-scale and per-rate spans come from a second, sequential pass
	// that only traced repeats make, outside the unit's own accounting.
	if c.traced() {
		for i, n := range sz.scales {
			c.rec.do(root, fmt.Sprintf("sim.RunCommon/scale=%d", n), func(int) {
				sim.RunCommon(n, 1, c.seed+uint64(i)*1000, opt)
			})
		}
		for i, r := range paperRates {
			c.rec.do(root, fmt.Sprintf("sim.RunCommon/rate=%g", r), func(int) {
				sim.RunCommon(sz.ratesN, r, c.seed+uint64(i)*1000, opt)
			})
		}
	}

	s.ops = int(sh.events)
	s.fingerprint = fmt.Sprintf("digest=%016x events=%d", sh.digest, sh.events)
	s.add("setup_s", sh.setup.Seconds())
	for _, ch := range sh.chunks {
		s.add("ops_per_s", float64(ch.events)/ch.wall.Seconds())
		s.add("allocs_per_op", float64(ch.mallocs)/float64(ch.events))
		s.add("cpu_us_per_op", ch.cpu()*1e6/float64(ch.events))
	}
	s.add("op_p50_ms", ms(figures))
	s.add("cpu_s", u.cpu())
	s.add("bytes_per_node", sh.bytesPerNode)
	s.add("sim.fig5_8_s", fig58.Seconds())
	s.add("sim.fig9_10_s", fig910.Seconds())
	s.add("sim.fig11_12_s", fig1112.Seconds())
	s.add("sim.sharded.build_s", sh.build.Seconds())

	// Simulated statistics and the output checks on them.
	total := 0
	for _, n := range common.LevelCounts {
		total += n
	}
	share0 := float64(common.LevelCounts[0]) / float64(total)
	errPct := 100 * common.MeanErrorRate()
	per1000 := 0.0
	if size := common.ListSizes[0].Mean(); size > 0 {
		per1000 = common.InBps[0].Mean() / size * 1000
	}
	s.add("window_error_pct", errPct)
	s.add("maint_bps_per_1000ptr", per1000)
	s.check(share0 > 0.5, "fig 5: level-0 share %.3f, want > 0.5", share0)
	s.check(errPct > 0 && errPct < 1, "fig 7: mean error %.4f%%, want in (0,1)", errPct)
	// EXPERIMENTS.md: "input per 1000 pointers is flat across levels:
	// 330–360 bit/s"; the check leaves room for seeds and smaller N.
	s.check(per1000 > 250 && per1000 < 450, "fig 8: %.1f bit/s per 1000 pointers, want 250–450", per1000)
	s.check(len(scales) == len(sz.scales) && scales[len(scales)-1].Common.Population > 0, "fig 9–10: sweep incomplete")
	// Fig 12: error falls as lifetimes lengthen; at Lifetime_Rate 0.1 it
	// is several times the rate-1 figure.
	e01 := 100 * rates[0].Common.MeanErrorRate()
	eLast := 100 * rates[len(rates)-1].Common.MeanErrorRate()
	s.check(e01 > 1 && e01 < 7, "fig 12: error at rate %g is %.3f%%, want 1–7%%", rates[0].LifetimeRate, e01)
	s.check(eLast < e01, "fig 12: error at rate %g (%.3f%%) not below rate %g (%.3f%%)",
		rates[len(rates)-1].LifetimeRate, eLast, rates[0].LifetimeRate, e01)
	s.check(sh.events > 0 && sh.population > 0, "sharded run executed no events")
	return s
}

// chunk is one slice of a measured window: what it cost and how many
// operations it covered.
type chunk struct {
	usage
	events uint64
}

// shardedRun is one build + warm + measured window of ShardedScaled.
type shardedRun struct {
	build, setup time.Duration
	wall         time.Duration // measured window
	chunks       []chunk
	events       uint64
	population   int
	digest       uint64
	bytesPerNode float64
	sim          *sim.ShardedScaled
}

func runSharded(c *runCtx, parent int, shards, workers int) shardedRun {
	sz := c.sz
	var r shardedRun
	t0 := time.Now()
	cfg := sim.DefaultShardedScaledConfig(sz.shardedN, c.seed, shards)
	cfg.Workers = workers
	c.rec.do(parent, "sim.NewShardedScaled", func(int) { r.sim = sim.NewShardedScaled(cfg) })
	r.build = time.Since(t0)
	c.rec.do(parent, "sim.ShardedScaled.Run/warm", func(int) { r.sim.Run(sz.shardedWarm) })
	r.setup = time.Since(t0)

	runtime.GC() // the set-up's garbage is not the window's to collect
	// The window is measured in chunks of five virtual minutes, one
	// span and one rate sample each.
	const step = 5 * des.Minute
	for left := sz.shardedMeasure; left > 0; left -= step {
		e0 := r.sim.EventsExecuted()
		w := beginWindow()
		c.rec.do(parent, "sim.ShardedScaled.Run", func(int) { r.sim.Run(step) })
		ch := chunk{usage: w.end(), events: r.sim.EventsExecuted() - e0}
		r.chunks = append(r.chunks, ch)
		r.wall += ch.wall
		r.events += ch.events
	}
	r.population = r.sim.Population()
	c.rec.do(parent, "sim.ShardedScaled.Digest", func(int) { r.digest = r.sim.Digest() })
	bytes, nodes := r.sim.MemoryFootprint()
	if nodes > 0 {
		r.bytesPerNode = float64(bytes) / float64(nodes)
	}
	return r
}

// probePaper adds the traced-only rows of the scaled simulators: the
// legacy engine's event rate, both audits, and the multi-shard run.
func probePaper(p *probeCtx) {
	c, m := p.c, p.m
	sz := c.sz
	root := c.rec.begin(0, "probe.sim")
	defer c.rec.end(root)

	// Legacy Scaled: events per host second over five virtual minutes
	// after a ten-minute warm-up, and one error-rate audit.
	legacy := sim.NewScaled(sim.DefaultScaledConfig(sz.commonN, c.seed))
	legacy.Run(10 * des.Minute)
	e0 := legacy.Engine.Executed()
	t0 := time.Now()
	c.rec.do(root, "sim.Scaled.Run", func(int) { legacy.Run(5 * des.Minute) })
	m["sim.scaled.events_per_s"] = float64(legacy.Engine.Executed()-e0) / time.Since(t0).Seconds()
	t0 = time.Now()
	c.rec.do(root, "sim.Scaled.ErrorRates", func(int) { legacy.ErrorRates(1000) })
	m["sim.scaled.audit_ms"] = ms(time.Since(t0))

	// The same sharded run at shards = workers = nproc, against a fresh
	// shards=1 run in this process; digests must agree.
	one := runSharded(c, root, 1, 1)
	t0 = time.Now()
	c.rec.do(root, "sim.ShardedScaled.ErrorRates", func(int) { one.sim.ErrorRates(1000) })
	m["sim.sharded.audit_ms"] = ms(time.Since(t0))
	one.sim = nil
	k := shardCount(runtime.NumCPU())
	par := runSharded(c, root, k, k)
	m["shard.par_events_per_s"] = float64(par.events) / par.wall.Seconds()
	m["shard.par_speedup"] = one.wall.Seconds() / par.wall.Seconds()
	m["shard.digest_match"] = 0
	if par.digest == one.digest && par.events == one.events {
		m["shard.digest_match"] = 1
	}
}

// shardCount returns the largest power of two ≤ n that divides the
// simulator's 256 slices (at least 1).
func shardCount(n int) int {
	k := 1
	for k*2 <= n && k*2 <= 256 {
		k *= 2
	}
	return k
}
