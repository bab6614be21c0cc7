package sim

// Deterministic telemetry export: the same internal/telemetry Exporter
// and Collector that pwnode and pwcollect run over UDP, driven here
// entirely inside virtual time. Each node gets an exporter flushed by
// engine events at a jittered cadence (jitter drawn from the cluster's
// seeded RNG, not the wall clock), and frames travel through an
// in-process sink straight into a collector running on the engine
// clock. Identical seeds therefore produce bit-identical frames,
// collector state, and health documents — which is what lets the tests
// assert exact loss accounting instead of eyeballing dashboards.

import (
	"fmt"

	"peerwindow/internal/des"
	"peerwindow/internal/telemetry"
	"peerwindow/internal/wire"
	"peerwindow/internal/xrand"
)

// TelemetryConfig parameterises ExportTelemetry.
type TelemetryConfig struct {
	// Interval is the per-node flush cadence in virtual time (default
	// 2 s); each gap is spread uniformly over ±telemetry.Jitter×Interval
	// from the cluster's seeded RNG.
	Interval des.Time
	// Collector, when nil, is built internally on the engine clock.
	Collector *telemetry.Collector
	// Sink, when set, intercepts each node's frames before the
	// collector — the fault-injection point. Return an error to refuse
	// the frame (exporter re-buffers the deltas); swallow it without
	// forwarding to model network loss (a collector sequence gap).
	Sink func(sn *SimNode, b []byte) error
}

// ClusterTelemetry wires every node of a cluster (present and future)
// to a telemetry collector.
type ClusterTelemetry struct {
	c   *Cluster
	cfg TelemetryConfig
	rng *xrand.Source

	// Collector is the receiving end, running on the engine clock.
	Collector *telemetry.Collector

	exporters map[wire.Addr]*telemetry.Exporter
	tracked   []*SimNode
	stopped   bool
}

// ExportTelemetry attaches a deterministic telemetry plane to the
// cluster: nodes already added and every node added later export
// delta frames at a jittered cadence until Stop.
func (c *Cluster) ExportTelemetry(cfg TelemetryConfig) *ClusterTelemetry {
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * des.Second
	}
	if cfg.Collector == nil {
		cfg.Collector = telemetry.NewCollector(telemetry.CollectorConfig{
			Clock:          c.Engine.Now,
			BeaconInterval: cfg.Interval,
		})
	}
	ct := &ClusterTelemetry{
		c:         c,
		cfg:       cfg,
		rng:       c.rng.Split(0x7e1e),
		Collector: cfg.Collector,
		exporters: make(map[wire.Addr]*telemetry.Exporter),
	}
	for _, sn := range c.nodes {
		ct.attach(sn)
	}
	prev := c.onAddNode
	c.onAddNode = func(sn *SimNode) {
		if prev != nil {
			prev(sn)
		}
		if !ct.stopped {
			ct.attach(sn)
		}
	}
	return ct
}

// Stop ends the flushing; armed engine events become no-ops and future
// nodes are not attached.
func (ct *ClusterTelemetry) Stop() { ct.stopped = true }

// attach builds a node's exporter and arms its first flush.
func (ct *ClusterTelemetry) attach(sn *SimNode) {
	sink := telemetry.SinkFunc(ct.Collector.Ingest)
	if ct.cfg.Sink != nil {
		hook := ct.cfg.Sink
		sink = func(b []byte) error { return hook(sn, b) }
	}
	e := telemetry.NewExporter(telemetry.ExporterConfig{
		Node: sn.Addr,
		Name: fmt.Sprintf("sim-%d", sn.Addr),
		ID:   sn.Node.Self().ID,
	}, sink)
	ct.exporters[sn.Addr] = e
	ct.tracked = append(ct.tracked, sn)
	ct.schedule(sn, e)
}

// schedule arms the node's next flush one jittered interval out.
func (ct *ClusterTelemetry) schedule(sn *SimNode, e *telemetry.Exporter) {
	gap := ct.jittered()
	ct.c.Engine.After(gap, func() {
		if ct.stopped || !sn.Alive() {
			// A killed node stops beaconing — exactly the silence the
			// collector's staleness detector is there to notice.
			return
		}
		ct.flush(sn, e)
		ct.schedule(sn, e)
	})
}

func (ct *ClusterTelemetry) jittered() des.Time {
	span := float64(ct.cfg.Interval) * telemetry.Jitter
	return des.Time(float64(ct.cfg.Interval) + span*(2*ct.rng.Float64()-1))
}

func (ct *ClusterTelemetry) flush(sn *SimNode, e *telemetry.Exporter) {
	e.Flush(ct.c.Engine.Now(), sn.Node.MetricsSnapshot(), telemetry.Beacon{
		Level:  sn.Node.Level(),
		Window: sn.Node.Peers().Len(),
	})
}

// FlushAll pushes one final frame from every tracked node — dead ones
// included (their instruments are frozen at crash state) — so the
// collector's totals converge to the nodes' final snapshots. Tests call
// it before comparing collector totals against the nodes' MetricsSnapshot.
func (ct *ClusterTelemetry) FlushAll() {
	for _, sn := range ct.tracked {
		ct.flush(sn, ct.exporters[sn.Addr])
	}
}

// ExporterStats returns a node's exporter counters (zero value when the
// node is unknown).
func (ct *ClusterTelemetry) ExporterStats(addr wire.Addr) telemetry.ExporterStats {
	if e, ok := ct.exporters[addr]; ok {
		return e.Stats()
	}
	return telemetry.ExporterStats{}
}
