package main

import (
	"fmt"
	"math"
)

// This file wires each workload to the probes of the layers it
// exercises and reconciles the layer rows with the workload's own cost
// per message. The residual is stated, not hidden: it is executor
// hand-off, timers, GC and whatever the probes' inputs get wrong.

func val(r *report, name string) float64 { return r.Metrics[name].Value }

// postPaper derives the figure-7 nondeterminism row: the same seed
// should give the same mean error on every repeat, and today it does
// not (sim.RunCommon's aggregation order varies).
func postPaper(r *report, reps []sample) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range reps {
		for _, v := range s.m["window_error_pct"] {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
	}
	if hi >= lo {
		r.Metrics["sim.fig7_error_spread"] = one(hi-lo, "sim.fig7_error_spread")
	}
}

func probesPaper(p *probeCtx, r *report) {
	probeDES(p)
	probePaper(p)
	if p.m["shard.digest_match"] != 1 {
		r.Correct = false
		r.Notes = append(r.Notes, "sharded digest differs between shards=1 and shards=nproc")
	}
}

func probesCluster(p *probeCtx, r *report) {
	probeDES(p)
	cr := probeCore(p)
	wr := probeWire(p)
	probeTelemetry(p)
	probeTrace(p)
	probeClusterOverheads(p)

	// One simulated message = one handler call by its kind, one
	// wire.SizeBits at the send (the simulator marshals to size it), and
	// its share of engine events (deliveries and timers).
	share := func(kind string) float64 { return val(r, "sim.cluster.msg_share."+kind) }
	handle := share("event")*cr.handleEvent + share("ack")*cr.handleAck +
		(share("heartbeat")+share("heartbeat-ack"))*cr.handleHeartbeat
	size := share("event")*wr.sizeBitsEvent + (1-share("event"))*wr.sizeBitsAck
	engine := val(r, "sim.cluster.des_events_per_msg") * p.m["des.schedule_ns"]
	total := 1000 * val(r, "sim.cluster.us_per_msg")
	if total > 0 {
		p.m["attribution.cluster_churn.residual_pct"] = 100 * (total - handle - size - engine) / total
	}
	r.Notes = append(r.Notes, fmt.Sprintf(
		"attribution cluster_churn: %.0f ns/msg = core.handle %.0f (by message mix) + wire.SizeBits %.0f + des %.0f (%.2f events/msg) + residual %.0f",
		total, handle, size, engine, val(r, "sim.cluster.des_events_per_msg"), total-handle-size-engine))
}

func probesUDP(p *probeCtx, r *report) {
	cr := probeCore(p)
	wr := probeWire(p)
	probeTrace(p)
	apply := probeQueryApply(p)
	pair := probeUDPPair(p)

	// One datagram = marshal + write on the sender, read + unmarshal +
	// handler on the receiver; every delivered event also publishes one
	// store update. Events and acks are half the traffic each.
	const eventShare = 0.5
	handle := eventShare*cr.handleEvent + (1-eventShare)*cr.handleAck
	codec := wr.marshalEvent + wr.unmarshalEvent
	publish := eventShare * apply
	total := 1000 * val(r, "cpu_us_per_op")
	if total > 0 {
		p.m["attribution.udp_live.residual_pct"] = 100 * (total - handle - codec - publish - pair) / total
	}
	r.Notes = append(r.Notes, fmt.Sprintf(
		"attribution udp_live: %.0f CPU ns/msg = core.handle %.0f + wire marshal+unmarshal %.0f + query publish %.0f + os.udp_pair %.0f + residual %.0f",
		total, handle, codec, publish, pair, total-handle-codec-publish-pair))
}

func probesQuery(p *probeCtx, r *report) {
	probeQueryApply(p)
	probeQueryReads(p)
}
