package main

import "strings"

// The four workloads, by the names BENCHMARK.json uses.
const (
	wlPaper   = "paper_scaled"
	wlCluster = "cluster_churn"
	wlUDP     = "udp_live"
	wlQuery   = "query_mixed"
)

// workloadDef is one workload of the benchmark.
type workloadDef struct {
	name string
	why  string // one line for BENCHMARK.json
	// fixedWork units do a fixed amount of virtual-time work per repeat
	// and are repeated until the run's duration is used up; the others
	// are time-boxed and split the duration over the repeats.
	fixedWork bool
	run       func(*runCtx) sample
	// post derives rows that need all of a run's repeats at once.
	post func(r *report, reps []sample)
	// probes runs the traced pass's layer probes for the layers this
	// workload exercises and derives its attribution.
	probes func(p *probeCtx, r *report)
}

var workloads = []*workloadDef{
	{
		name: wlPaper, fixedWork: true, run: runPaper, post: postPaper, probes: probesPaper,
		why: "Figs 5-12 (Fig 5-10 at the paper's N, Fig 11-12 at N=20k) then 1M nodes x 30 virtual min on ShardedScaled shards=1: des+sim+shard do all the work, core/wire/sockets none",
	},
	{
		name: wlCluster, fixedWork: true, run: runCluster, probes: probesCluster,
		why: "full-fidelity sim.Cluster, 1000 nodes, Gnutella churn, 2+6 virtual min, then 60 joins into 600: core.HandleMessage, multicast, acks, probes, des timers, wire.SizeBits on one core, no sockets",
	},
	{
		name: wlUDP, run: runUDP, probes: probesUDP,
		why: "16 udptransport nodes on loopback sockets: closed-loop info-change multicast (2 outstanding), then a 17th node joins and leaves repeatedly: executor, wire codec, query publish, 2 syscalls per message",
	},
	{
		name: wlQuery, run: runQuery, probes: probesQuery,
		why: "10,000-entry query.Store, one delta (3:1 update / remove+add) then Get, Strongest(8), WithField, MinLevel, interleaved on one goroutine, then write-only: only the query package works",
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metricDef is one row of BENCHMARK.json plus where it is measured.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change is rejected; 0 marks a per-layer metric.
	bound float64
	// on lists the workloads that measure the metric; nil means all.
	// Elsewhere a per-layer metric reads 0: that layer does no work on
	// that workload.
	on []string
}

func (d metricDef) endToEnd() bool { return d.bound > 0 }

func (d metricDef) measuredOn(workload string) bool {
	if d.on == nil {
		return true
	}
	for _, w := range d.on {
		if w == workload {
			return true
		}
	}
	return false
}

var (
	onPaper     = []string{wlPaper}
	onCluster   = []string{wlCluster}
	onUDP       = []string{wlUDP}
	onQuery     = []string{wlQuery}
	onSims      = []string{wlPaper, wlCluster}
	onProtocol  = []string{wlCluster, wlUDP}
	onStoreUser = []string{wlUDP, wlQuery}
)

// metricDefs is the benchmark's whole vocabulary. What "one operation"
// is on each workload is part of the definition of the end-to-end rows;
// cmd/pwbench/README.md has the table.
var metricDefs = func() []metricDef {
	lower := func(name, unit string, on []string) metricDef {
		return metricDef{name: name, unit: unit, better: "lower", on: on}
	}
	higher := func(name, unit string, on []string) metricDef {
		return metricDef{name: name, unit: unit, better: "higher", on: on}
	}
	defs := []metricDef{
		// End to end: every workload reports every one of these.
		{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
		{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
		{name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.25},
		{name: "allocs_per_op", unit: "count", better: "lower", bound: 0.10},
		{name: "cpu_us_per_op", unit: "us", better: "lower", bound: 0.25},
		{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25},

		// What a user of one workload sees and the others cannot report.
		lower("bytes_per_node", "B", onPaper),
		lower("window_error_pct", "%", onSims),
		lower("maint_bps_per_1000ptr", "bit/s", onSims),
		lower("cpu_s", "s", onSims),
		higher("events_delivered_per_s", "1/s", onUDP),
		lower("delivery_p50_ms", "ms", onUDP),
		lower("trace_overhead_pct", "%", nil),

		lower("des.schedule_ns", "ns", onSims),
		lower("des.cancel_churn_ns", "ns", onSims),
		lower("des.run_window_ns", "ns", onSims),
		lower("des.allocs_per_event", "count", onSims),

		higher("shard.par_events_per_s", "1/s", onPaper),
		higher("shard.par_speedup", "ratio", onPaper),
		higher("shard.digest_match", "count", onPaper),

		lower("sim.fig5_8_s", "s", onPaper),
		lower("sim.fig9_10_s", "s", onPaper),
		lower("sim.fig11_12_s", "s", onPaper),
		higher("sim.scaled.events_per_s", "1/s", onPaper),
		lower("sim.scaled.audit_ms", "ms", onPaper),
		lower("sim.sharded.build_s", "s", onPaper),
		lower("sim.sharded.audit_ms", "ms", onPaper),
		lower("sim.fig7_error_spread", "%", onPaper),

		lower("sim.cluster.warmstart_ms", "ms", onCluster),
		lower("sim.cluster.us_per_msg", "us", onCluster),
		lower("sim.cluster.des_events_per_msg", "count", onCluster),
		lower("sim.cluster.bits_per_msg", "bit", onCluster),
		lower("sim.cluster.join_wave_ms", "ms", onCluster),
		lower("sim.cluster.join_wave_allocs", "count", onCluster),
		lower("sim.cluster.audit_ms", "ms", onCluster),

		lower("core.handle_event_ns", "ns", onProtocol),
		lower("core.handle_ack_ns", "ns", onProtocol),
		lower("core.handle_heartbeat_ns", "ns", onProtocol),
		lower("core.handle_allocs_per_msg", "count", onProtocol),
		lower("core.originate_ns", "ns", onProtocol),
		lower("core.merge_sorted_ns_per_ptr", "ns", onProtocol),
		lower("core.upsert_ns", "ns", onProtocol),
		lower("core.lookup_ns", "ns", onProtocol),
		lower("core.restore_ms", "ms", onProtocol),
		lower("core.multicast.dup_ratio", "ratio", onProtocol),
		lower("core.multicast.redirect_ratio", "ratio", onProtocol),
		lower("core.ack.retry_ratio", "ratio", onProtocol),
		lower("core.probe.false_alarm_ratio", "ratio", onProtocol),
		lower("core.multicast.depth_mean", "count", onProtocol),
		lower("core.multicast.root_out_degree", "count", onProtocol),

		lower("wire.marshal_event_ns", "ns", onProtocol),
		lower("wire.unmarshal_event_ns", "ns", onProtocol),
		lower("wire.sizebits_event_ns", "ns", onProtocol),
		lower("wire.marshal_allocs", "count", onProtocol),
		lower("wire.unmarshal_allocs", "count", onProtocol),
		lower("wire.event_bytes", "B", onProtocol),
		lower("wire.marshal_list_ns_per_ptr", "ns", onProtocol),
		lower("wire.unmarshal_list_ns_per_ptr", "ns", onProtocol),

		lower("udptransport.cpu_user_us_per_msg", "us", onUDP),
		lower("udptransport.cpu_sys_us_per_msg", "us", onUDP),
		lower("udptransport.ctx_switches_per_msg", "count", onUDP),
		lower("udptransport.msgs_per_event", "count", onUDP),
		lower("udptransport.hop_us", "us", onUDP),
		lower("udptransport.delivery_p99_ms", "ms", onUDP),
		lower("udptransport.join_p99_ms", "ms", onUDP),
		lower("udptransport.join_rpc_ms", "ms", onUDP),
		lower("udptransport.listen_ms", "ms", onUDP),
		lower("udptransport.listen_retries", "count", onUDP),
		lower("udptransport.bulk_sends", "count", onUDP),
		lower("udptransport.garbage_datagrams", "count", onUDP),
		lower("udptransport.loss", "ratio", onUDP),
		lower("udptransport.goroutines", "count", onUDP),
		lower("os.udp_pair_us", "us", onUDP),

		lower("query.apply_add_us", "us", onStoreUser),
		lower("query.apply_update_us", "us", onStoreUser),
		lower("query.apply_remove_us", "us", onStoreUser),
		lower("query.apply_allocs", "count", onStoreUser),
		lower("query.sub_fanout_ns", "ns", onStoreUser),
		lower("query.apply_p99_us", "us", onQuery),
		higher("query.deltas_per_s", "1/s", onQuery),
		lower("query.get_ns", "ns", onQuery),
		lower("query.strongest8_us", "us", onQuery),
		lower("query.with_field_us", "us", onQuery),
		lower("query.min_level_ns", "ns", onQuery),
		lower("query.sub_dropped", "count", onQuery),

		lower("telemetry.flush_us", "us", onCluster),
		lower("telemetry.flush_allocs", "count", onCluster),
		lower("telemetry.ingest_us", "us", onCluster),
		lower("telemetry.frame_bytes", "B", onCluster),
		lower("telemetry.cluster_overhead_pct", "%", onCluster),

		lower("trace.span_record_ns", "ns", onProtocol),
		lower("trace.cluster_overhead_pct", "%", onCluster),

		lower("attribution.cluster_churn.residual_pct", "%", onCluster),
		lower("attribution.udp_live.residual_pct", "%", onUDP),
	}
	// The churn workload's message mix: event share is the useful
	// traffic, every other kind is overhead.
	for _, t := range msgTypes {
		d := lower("sim.cluster.msg_share."+t.String(), "ratio", onCluster)
		if t.String() == "event" {
			d.better = "higher"
		}
		defs = append(defs, d)
	}
	for _, pkg := range cpuPackages {
		defs = append(defs, lower("cpu_share."+pkg, "%", nil))
	}
	return defs
}()

var metricByName = func() map[string]metricDef {
	m := make(map[string]metricDef, len(metricDefs))
	for _, d := range metricDefs {
		m[d.name] = d
	}
	return m
}()

// unitOf returns a metric's unit; harness-internal series (leading
// underscore) have none.
func unitOf(name string) string {
	if d, ok := metricByName[name]; ok {
		return d.unit
	}
	if strings.HasPrefix(name, "_") {
		return ""
	}
	panic("pwbench: metric " + name + " is not in metricDefs")
}
