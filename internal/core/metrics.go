package core

// This file is the protocol's self-measurement: every node carries
// counters and histograms, fields of the Node, that the state machine
// increments inline — multicast fan-out, ack retries, probe rounds,
// failure-detection latency, level shifts, refresh traffic. The same
// moments that bump a counter also record a span when a sink is attached
// (span.go), so counters can be cross-checked against the timeline.
// Counter writes are single atomic adds (see internal/metrics), cheap
// enough to stay on in the hot paths the PR 1 benchmarks guard.

import (
	"fmt"

	"peerwindow/internal/metrics"
)

// Metric names of a node's instruments (see nodeInstruments). docs/OBSERVABILITY.md is
// the human-facing index; keep the two in sync.
const (
	MetricMulticastOriginated = "multicast.originated"
	MetricMulticastDelivered  = "multicast.delivered"
	MetricMulticastDuplicates = "multicast.duplicates"
	MetricMulticastForwards   = "multicast.forwards"
	MetricMulticastRedirects  = "multicast.redirects"
	MetricMulticastStepDepth  = "multicast.step_depth"

	MetricAckRetries  = "ack.retries"
	MetricAckFailures = "ack.failures"

	MetricProbeRounds        = "probe.rounds"
	MetricProbeRetries       = "probe.retries"
	MetricProbeFailures      = "probe.failures"
	MetricProbeDetectLatency = "probe.detect_latency_seconds"

	MetricFailureVerified    = "failure.verified"
	MetricFailureFalseAlarms = "failure.false_alarms"

	MetricLevelShiftsUp   = "level.shifts_up"
	MetricLevelShiftsDown = "level.shifts_down"

	MetricRefreshSelf    = "refresh.self_multicasts"
	MetricRefreshExpired = "refresh.expired_pointers"

	MetricReportsSent        = "report.sent"
	MetricReportEscalations  = "report.escalations"
	MetricTopListRefreshes   = "toplist.cross_part_refreshes"
	MetricSplitCaptures      = "split.captures"
	MetricReconcileRuns      = "reconcile.runs"
	MetricReconcileDrops     = "reconcile.dropped_pointers"
	MetricPeersAdded         = "peers.added"
	MetricPeersRemovedPrefix = "peers.removed." // + RemoveReason.String()

	MetricGaugeLevel      = "peer.level"
	MetricGaugeWindowSize = "peer.window_size"
	MetricGaugeInBps      = "peer.input_rate_bps"
	MetricGaugeOutBps     = "peer.output_rate_bps"
)

// nodeMetrics is a node's instruments, held by value in the Node, so a
// node's construction allocates none of them. nodeInstruments names each
// one.
type nodeMetrics struct {
	mcOriginated metrics.Counter
	mcDelivered  metrics.Counter
	mcDuplicates metrics.Counter
	mcForwards   metrics.Counter
	mcRedirects  metrics.Counter
	mcStepDepth  metrics.Hist

	ackRetries  metrics.Counter
	ackFailures metrics.Counter

	probeRounds   metrics.Counter
	probeRetries  metrics.Counter
	probeFailures metrics.Counter
	detectLatency metrics.Hist

	failVerified    metrics.Counter
	failFalseAlarms metrics.Counter

	shiftsUp   metrics.Counter
	shiftsDown metrics.Counter

	refreshSelf    metrics.Counter
	refreshExpired metrics.Counter

	reportsSent       metrics.Counter
	reportEscalations metrics.Counter
	topListRefreshes  metrics.Counter
	splitCaptures     metrics.Counter
	reconcileRuns     metrics.Counter
	reconcileDrops    metrics.Counter

	peersAdded   metrics.Counter
	peersRemoved [RemoveShift + 1]metrics.Counter // indexed by RemoveReason; 0 unused
}

// stepDepthBounds bucket the multicast step counter (fan-out depth):
// identifiers are 128 bits, so depth can reach nodeid.Bits, but real
// trees stay near log2 N.
var stepDepthBounds = []float64{1, 2, 4, 8, 12, 16, 24, 32, 64, 128}

// instrument is one row of nodeInstruments: a name and, by kind, the
// counter or histogram field that holds the instrument or the reading
// that gives the gauge.
type instrument struct {
	name    string
	counter func(*nodeMetrics) *metrics.Counter
	hist    func(*nodeMetrics) *metrics.Hist
	bounds  []float64 // the histogram's
	gauge   func(*Node) int64
}

// nodeInstruments is every instrument of a node, each once. NewNode
// readies the histograms from it, MetricsSnapshot and Instruments walk it,
// and its names are checked once, when the program starts.
var nodeInstruments = func() []instrument {
	t := []instrument{
		{name: MetricMulticastOriginated, counter: func(m *nodeMetrics) *metrics.Counter { return &m.mcOriginated }},
		{name: MetricMulticastDelivered, counter: func(m *nodeMetrics) *metrics.Counter { return &m.mcDelivered }},
		{name: MetricMulticastDuplicates, counter: func(m *nodeMetrics) *metrics.Counter { return &m.mcDuplicates }},
		{name: MetricMulticastForwards, counter: func(m *nodeMetrics) *metrics.Counter { return &m.mcForwards }},
		{name: MetricMulticastRedirects, counter: func(m *nodeMetrics) *metrics.Counter { return &m.mcRedirects }},
		{name: MetricMulticastStepDepth, hist: func(m *nodeMetrics) *metrics.Hist { return &m.mcStepDepth }, bounds: stepDepthBounds},
		{name: MetricAckRetries, counter: func(m *nodeMetrics) *metrics.Counter { return &m.ackRetries }},
		{name: MetricAckFailures, counter: func(m *nodeMetrics) *metrics.Counter { return &m.ackFailures }},
		{name: MetricProbeRounds, counter: func(m *nodeMetrics) *metrics.Counter { return &m.probeRounds }},
		{name: MetricProbeRetries, counter: func(m *nodeMetrics) *metrics.Counter { return &m.probeRetries }},
		{name: MetricProbeFailures, counter: func(m *nodeMetrics) *metrics.Counter { return &m.probeFailures }},
		{name: MetricProbeDetectLatency, hist: func(m *nodeMetrics) *metrics.Hist { return &m.detectLatency }, bounds: metrics.DefaultLatencyBounds()},
		{name: MetricFailureVerified, counter: func(m *nodeMetrics) *metrics.Counter { return &m.failVerified }},
		{name: MetricFailureFalseAlarms, counter: func(m *nodeMetrics) *metrics.Counter { return &m.failFalseAlarms }},
		{name: MetricLevelShiftsUp, counter: func(m *nodeMetrics) *metrics.Counter { return &m.shiftsUp }},
		{name: MetricLevelShiftsDown, counter: func(m *nodeMetrics) *metrics.Counter { return &m.shiftsDown }},
		{name: MetricRefreshSelf, counter: func(m *nodeMetrics) *metrics.Counter { return &m.refreshSelf }},
		{name: MetricRefreshExpired, counter: func(m *nodeMetrics) *metrics.Counter { return &m.refreshExpired }},
		{name: MetricReportsSent, counter: func(m *nodeMetrics) *metrics.Counter { return &m.reportsSent }},
		{name: MetricReportEscalations, counter: func(m *nodeMetrics) *metrics.Counter { return &m.reportEscalations }},
		{name: MetricTopListRefreshes, counter: func(m *nodeMetrics) *metrics.Counter { return &m.topListRefreshes }},
		{name: MetricSplitCaptures, counter: func(m *nodeMetrics) *metrics.Counter { return &m.splitCaptures }},
		{name: MetricReconcileRuns, counter: func(m *nodeMetrics) *metrics.Counter { return &m.reconcileRuns }},
		{name: MetricReconcileDrops, counter: func(m *nodeMetrics) *metrics.Counter { return &m.reconcileDrops }},
		{name: MetricPeersAdded, counter: func(m *nodeMetrics) *metrics.Counter { return &m.peersAdded }},
		// The gauges are read when a snapshot is taken, so the hot paths
		// stay write-only.
		{name: MetricGaugeLevel, gauge: func(n *Node) int64 { return int64(n.Level()) }},
		{name: MetricGaugeWindowSize, gauge: func(n *Node) int64 { return int64(n.peers.Len()) }},
		{name: MetricGaugeInBps, gauge: func(n *Node) int64 { return int64(n.InputRate()) }},
		{name: MetricGaugeOutBps, gauge: func(n *Node) int64 { return int64(n.OutputRate()) }},
	}
	for r := RemoveLeave; r <= RemoveShift; r++ {
		t = append(t, instrument{name: MetricPeersRemovedPrefix + r.String(),
			counter: func(m *nodeMetrics) *metrics.Counter { return &m.peersRemoved[r] }})
	}
	for _, d := range t {
		if !metrics.ValidName(d.name) {
			panic(fmt.Sprintf("core: invalid instrument name %q", d.name))
		}
	}
	return t
}()

// init readies the histograms.
func (m *nodeMetrics) init() {
	for _, d := range nodeInstruments {
		if d.hist != nil {
			d.hist(m).Init(d.bounds)
		}
	}
}

// removed bumps the per-reason removal counter.
func (m *nodeMetrics) removed(r RemoveReason) {
	if r > 0 && int(r) < len(m.peersRemoved) {
		m.peersRemoved[r].Inc()
	}
}

// Instruments is a node's counters and histograms looked up by name, as
// Metrics returns them.
type Instruments struct{ n *Node }

// Metrics returns the node's instruments for readers that look one up by
// name. In this repository those are the benchmark module (cmd/pwbench)
// and TestMetricsRegistryIsTheNodes; every other reader takes
// MetricsSnapshot.
func (n *Node) Metrics() Instruments { return Instruments{n} }

// Counter returns the node's counter under name, or nil if it has none:
// an increment through it is the node's own and shows in the next
// MetricsSnapshot.
func (in Instruments) Counter(name string) *metrics.Counter {
	for _, d := range nodeInstruments {
		if d.name == name && d.counter != nil {
			return d.counter(&in.n.m)
		}
	}
	return nil
}

// Snapshot captures the node's counters and histograms; the gauges are
// read by MetricsSnapshot alone.
func (in Instruments) Snapshot() metrics.Snapshot { return in.n.snapshot(false) }

// MetricsSnapshot captures every protocol instrument plus the
// instantaneous gauges (level, window size, measured rates).
func (n *Node) MetricsSnapshot() metrics.Snapshot { return n.snapshot(true) }

// snapshot captures the counters and histograms, and the gauges if asked.
func (n *Node) snapshot(gauges bool) metrics.Snapshot {
	s := metrics.Snapshot{
		Counters:   make(map[string]uint64, len(nodeInstruments)),
		Gauges:     make(map[string]int64, 4),
		Histograms: make(map[string]metrics.HistSnapshot, 2),
	}
	for _, d := range nodeInstruments {
		switch {
		case d.counter != nil:
			s.Counters[d.name] = d.counter(&n.m).Value()
		case d.hist != nil:
			s.Histograms[d.name] = d.hist(&n.m).Snapshot()
		case gauges:
			s.Gauges[d.name] = d.gauge(n)
		}
	}
	return s
}
