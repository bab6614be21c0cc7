package telemetry

// Health scoring: the collector reduces each node's telemetry stream to
// a handful of raw signals and one 0–100 score, with stall and flap
// detectors that raise named alerts when a node crosses thresholds.
// The "Democracy in P2P" line of work motivates the shape: peer-quality
// signals computed centrally from cheap, continuously shipped evidence,
// usable later to down-weight misbehaving nodes. docs/OBSERVABILITY.md
// documents every signal and the exact score formula.

import (
	"sort"
	"strings"

	"peerwindow/internal/des"
)

// The detector thresholds. Ages and windows are fixed multiples of the
// collector's beacon interval (see scoreNode); the rest are constants.
const (
	// detectP99Budget is the failure-detection latency the overlay is
	// expected to stay under; p99 above it costs score proportionally.
	// 60 virtual seconds is 2× the paper's 30 s probe interval.
	detectP99Budget = 60 * des.Second
	// More than flapThreshold level changes within ten beacon intervals
	// raises the "flapping" alert.
	flapThreshold = 5
	// A node whose protocol counters advanced by nothing across
	// stallSamples consecutive stored samples (while still beaconing) is
	// "stalled".
	stallSamples = 5
)

// NodeHealth is one node's row in the /health document. Scores maps the
// health-signal names (the MetricHealth* constants) to raw values.
type NodeHealth struct {
	Addr            uint64             `json:"addr"`
	Name            string             `json:"name"`
	ID              string             `json:"id"`
	Level           int                `json:"level"`
	Window          int                `json:"window"`
	LastSeenSeconds float64            `json:"last_seen_seconds"`
	EventsPerSec    float64            `json:"events_per_sec"`
	Health          float64            `json:"health"`
	Scores          map[string]float64 `json:"scores"`
	Alerts          []string           `json:"alerts,omitempty"`

	FramesReceived     uint64 `json:"frames_received"`
	FramesMissing      uint64 `json:"frames_missing"`
	ExporterFrameDrops uint64 `json:"exporter_frame_drops"`
	ExporterSpanDrops  uint64 `json:"exporter_span_drops"`
	SpansReceived      uint64 `json:"spans_received"`
}

// HealthDoc is the /health endpoint's JSON document.
type HealthDoc struct {
	AtSeconds     float64      `json:"at_seconds"`
	BeaconSeconds float64      `json:"beacon_seconds"`
	Nodes         []NodeHealth `json:"nodes"`
	Alerts        []string     `json:"alerts"`
}

// scoreNode computes one node's health row at collector time now, for
// exporters expected every beacon.
func scoreNode(ns *nodeState, now, beacon des.Time) NodeHealth {
	// A node is stale (crashed or partitioned) after 1.8 beacon intervals
	// of silence, so a crash is flagged within 2 intervals even with the
	// exporters' ±Jitter; after 4 it is written off (score 0).
	staleAfter := beacon + beacon*4/5
	downAfter := 4 * beacon
	h := NodeHealth{
		Addr:               uint64(ns.addr),
		Name:               ns.name,
		ID:                 ns.id.String(),
		Level:              ns.level,
		Window:             ns.window,
		Scores:             map[string]float64{},
		FramesReceived:     ns.framesReceived,
		FramesMissing:      ns.framesMissing,
		ExporterFrameDrops: ns.exporterFrameDrops,
		ExporterSpanDrops:  ns.exporterSpanDrops,
		SpansReceived:      ns.spansReceived,
	}
	age := now - ns.lastSeen
	if age < 0 {
		age = 0
	}
	h.LastSeenSeconds = age.Seconds()
	score := 1.0

	// Heartbeat staleness: full credit inside one beacon interval,
	// linear decay to zero at staleAfter; past it the node is presumed
	// crashed or partitioned.
	h.Scores[MetricHealthStalenessSeconds] = age.Seconds()
	switch {
	case age >= downAfter:
		h.Alerts = append(h.Alerts, "down")
		score = 0
	case age >= staleAfter:
		h.Alerts = append(h.Alerts, "stale")
		score = 0
	case age > beacon:
		score *= 1 - float64(age-beacon)/float64(staleAfter-beacon)
	}

	// Failure-detection latency: p99 of the accumulated detect-latency
	// histogram against the budget.
	if dh, ok := ns.totals.Histograms[detectLatencyName]; ok && dh.Count > 0 {
		p99 := dh.Quantile(0.99)
		h.Scores[MetricHealthDetectP99Seconds] = p99
		if budget := detectP99Budget.Seconds(); p99 > budget {
			score *= budget / p99
		}
	}

	// Span loss at the exporter (evictions + refused frames).
	if tot := ns.spansReceived + ns.exporterSpanDrops; tot > 0 {
		rate := float64(ns.exporterSpanDrops) / float64(tot)
		h.Scores[MetricHealthSpanDropRate] = rate
		score *= 1 - rate
	}

	// Frame loss on the wire (collector-observed sequence gaps).
	if tot := ns.framesReceived + ns.framesMissing; tot > 0 {
		rate := float64(ns.framesMissing) / float64(tot)
		h.Scores[MetricHealthFrameLossRate] = rate
		if rate > 0.05 {
			h.Alerts = append(h.Alerts, "lossy")
		}
		score *= 1 - rate
	}

	// Send/receive asymmetry: a node sending much more than it hears
	// back (or vice versa) has a one-way link or is being ignored.
	sendB, recvB := prefixSum(ns.totals.Counters, "net.send"), prefixSum(ns.totals.Counters, "net.recv")
	if m := max(sendB, recvB); m >= 100 {
		asym := float64(m-min(sendB, recvB)) / float64(m)
		h.Scores[MetricHealthSendRecvAsymmetry] = asym
		if asym > 0.5 {
			h.Alerts = append(h.Alerts, "asymmetric")
			score *= 1 - (asym - 0.5)
		}
	}

	// Event rate over the stored window, plus the stall detector:
	// frozen protocol counters while the node still beacons.
	rate, flat := ns.eventRate(stallSamples)
	h.EventsPerSec = rate
	h.Scores[MetricHealthEventsPerSec] = rate
	if flat && age < staleAfter && ns.ringCount >= stallSamples {
		h.Alerts = append(h.Alerts, "stalled")
		score *= 0.5
	}

	// Flap detector: level changes inside the window.
	if flaps := ns.levelChangesSince(now - 10*beacon); flaps > flapThreshold {
		h.Alerts = append(h.Alerts, "flapping")
		score *= 0.7
	}

	if score < 0 {
		score = 0
	}
	h.Health = 100 * score
	h.Scores[MetricHealthScore] = h.Health
	return h
}

// detectLatencyName is core.MetricProbeDetectLatency; spelled here to
// avoid importing the protocol engine into the telemetry plane (the
// collector treats instrument names as opaque strings from frames).
const detectLatencyName = "probe.detect_latency_seconds"

func prefixSum(m map[string]uint64, prefix string) uint64 {
	var s uint64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

// summarize builds the collector-level alert lines for the doc footer
// (and pwtop's alert line): one line per alert kind naming the nodes.
func summarize(nodes []NodeHealth) []string {
	byAlert := map[string][]string{}
	for _, n := range nodes {
		for _, a := range n.Alerts {
			name := n.Name
			if name == "" {
				name = nodeLabel(n.Addr)
			}
			byAlert[a] = append(byAlert[a], name)
		}
	}
	kinds := make([]string, 0, len(byAlert))
	for k := range byAlert {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	out := make([]string, 0, len(kinds))
	for _, k := range kinds {
		sort.Strings(byAlert[k])
		out = append(out, k+": "+strings.Join(byAlert[k], ", "))
	}
	return out
}

// counterActivity sums a sample's protocol counters — the "events" a
// stall detector watches. All counters participate: any protocol
// activity at all (probes, multicasts, refreshes) counts as liveness.
func counterActivity(c map[string]uint64) uint64 {
	var s uint64
	for _, v := range c {
		s += v
	}
	return s
}
