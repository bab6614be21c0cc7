package telemetry

// The consumer side of the telemetry plane: a Collector ingests frames
// from any number of exporters and keeps, per node, accumulated
// instrument totals (counters as monotone deltas, gauges as last-write,
// histograms merged bucket-wise) plus a bounded ring of timeseries
// samples. On top of that state it serves:
//
//	/metrics     cluster-aggregated Prometheus exposition (every node's
//	             totals merged, plus the collector's own instruments)
//	/timeseries  per-node sample windows as JSON or CSV
//	/health      per-node health rows + cluster alert lines (pwtop's
//	             input; see health.go for the scoring)
//
// The collector is transport-agnostic: cmd/pwcollect feeds it from a
// UDP socket on the wall clock, the sim harness feeds it in-process on
// the engine clock, so the exact same ingest/scoring code is exercised
// deterministically in tests and live in CI.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"peerwindow/internal/des"
	"peerwindow/internal/metrics"
	"peerwindow/internal/nodeid"
	"peerwindow/internal/trace"
	"peerwindow/internal/wire"
)

// CollectorConfig parameterizes a collector.
type CollectorConfig struct {
	// Clock supplies the collector's notion of now, used for staleness
	// and sample stamps. pwcollect passes wall time since start; the
	// sim harness passes the engine clock. Required.
	Clock func() des.Time
	// RingCapacity bounds the per-node sample ring. Default 512.
	RingCapacity int
	// SpanCapacity bounds the merged span retention (0 disables span
	// retention; span counts are still accounted). Default 16384.
	SpanCapacity int
	// BeaconInterval is the exporters' expected flush cadence; the health
	// detectors measure ages and windows in units of it. Default 2 s.
	BeaconInterval des.Time
}

// Sample is one stored timeseries point for one node.
type Sample struct {
	// At is the node's own virtual timestamp from the frame; Seen is
	// the collector clock at ingest.
	At   des.Time
	Seen des.Time
	// Level and Window are the beacon state.
	Level, Window int
	// Counters is the node's accumulated counter totals at this point
	// (cumulative, so consumers can difference any two samples);
	// Gauges the last-write gauge values.
	Counters map[string]uint64
	Gauges   map[string]int64
}

// nodeState is everything the collector knows about one exporter.
type nodeState struct {
	addr   wire.Addr
	name   string
	id     nodeid.ID
	level  int
	window int

	lastSeen des.Time
	lastAt   des.Time
	started  bool
	lastSeq  uint64

	framesReceived     uint64
	framesMissing      uint64
	exporterFrameDrops uint64
	exporterSpanDrops  uint64
	exporterRegression uint64
	spansReceived      uint64

	// totals accumulates the deltas: the node's reconstructed
	// instrument snapshot.
	totals metrics.Snapshot

	// ring is the bounded timeseries store.
	ring      []Sample
	ringNext  int
	ringCount int

	// levelAt records recent level-change times (collector clock,
	// bounded) for the flap detector.
	levelAt []des.Time
}

// Collector ingests telemetry frames and serves the cluster view. All
// methods are safe for concurrent use.
type Collector struct {
	cfg CollectorConfig

	mu    sync.Mutex
	nodes map[wire.Addr]*nodeState

	spans *trace.SpanBuffer

	reg            *metrics.Registry
	framesReceived *metrics.Counter
	framesBad      *metrics.Counter
	framesLate     *metrics.Counter
	framesMissing  *metrics.Counter
	spansReceived  *metrics.Counter
	regressions    *metrics.Counter
	bytesReceived  *metrics.Counter
	nodesGauge     *metrics.Gauge
}

// NewCollector builds a collector.
func NewCollector(cfg CollectorConfig) *Collector {
	if cfg.Clock == nil {
		panic("telemetry: CollectorConfig.Clock is required")
	}
	if cfg.RingCapacity <= 0 {
		cfg.RingCapacity = 512
	}
	if cfg.SpanCapacity == 0 {
		cfg.SpanCapacity = 16384
	}
	if cfg.BeaconInterval <= 0 {
		cfg.BeaconInterval = 2 * des.Second
	}
	reg := metrics.NewRegistry()
	c := &Collector{
		cfg:            cfg,
		nodes:          make(map[wire.Addr]*nodeState),
		reg:            reg,
		framesReceived: reg.Counter(MetricTelemetryFramesReceived),
		framesBad:      reg.Counter(MetricTelemetryFramesBad),
		framesLate:     reg.Counter(MetricTelemetryFramesLate),
		framesMissing:  reg.Counter(MetricTelemetryFramesMissing),
		spansReceived:  reg.Counter(MetricTelemetrySpansReceived),
		regressions:    reg.Counter(MetricTelemetryRegressions),
		bytesReceived:  reg.Counter(MetricTelemetryBytesReceived),
		nodesGauge:     reg.Gauge(MetricTelemetryNodes),
	}
	if cfg.SpanCapacity > 0 {
		c.spans = trace.NewSpanBuffer(cfg.SpanCapacity)
	}
	return c
}

// Spans returns the merged span retention buffer (nil when disabled).
func (c *Collector) Spans() *trace.SpanBuffer { return c.spans }

// Ingest decodes and applies one datagram. Malformed frames are
// counted and returned as errors; the caller (a UDP read loop) should
// keep going.
func (c *Collector) Ingest(b []byte) error {
	c.bytesReceived.Add(uint64(len(b)))
	f, err := Unmarshal(b)
	if err != nil {
		c.framesBad.Inc()
		return err
	}
	c.IngestFrame(f)
	return nil
}

// IngestFrame applies one decoded frame.
func (c *Collector) IngestFrame(f *Frame) {
	now := c.cfg.Clock()
	c.framesReceived.Inc()
	if len(f.Spans) > 0 {
		c.spansReceived.Add(uint64(len(f.Spans)))
		if c.spans != nil {
			for i := range f.Spans {
				c.spans.RecordSpan(f.Spans[i])
			}
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	ns, ok := c.nodes[f.Node]
	if !ok {
		ns = &nodeState{
			addr: f.Node,
			ring: make([]Sample, c.cfg.RingCapacity),
		}
		c.nodes[f.Node] = ns
		c.nodesGauge.Set(int64(len(c.nodes)))
	}

	inOrder := true
	switch {
	case !ns.started || f.Seq == 0:
		// A new stream: the node's first frame here, or an exporter's
		// first frame (the node restarted, with a fresh exporter). A
		// first frame past Seq 0 joined mid-stream (collector restarted
		// or first frames lost): everything before is missing.
		ns.started = true
		ns.lastSeq = f.Seq
		ns.exporterRegression = 0
		ns.framesMissing += f.Seq
		c.framesMissing.Add(f.Seq)
	case f.Seq > ns.lastSeq+1:
		gap := f.Seq - ns.lastSeq - 1
		ns.framesMissing += gap
		c.framesMissing.Add(gap)
		ns.lastSeq = f.Seq
	case f.Seq <= ns.lastSeq:
		// A late (reordered) frame: its deltas are still valid and
		// commute, so apply them and take back one presumed-missing
		// count, but don't let its stale beacon overwrite state.
		inOrder = false
		c.framesLate.Inc()
		if ns.framesMissing > 0 {
			ns.framesMissing--
		}
	default:
		ns.lastSeq = f.Seq
	}
	ns.framesReceived++
	ns.spansReceived += uint64(len(f.Spans))

	// Counter and histogram deltas commute; merge them regardless of
	// arrival order.
	if f.Delta.Counters != nil || f.Delta.Histograms != nil {
		d := f.Delta
		if !inOrder {
			d.Gauges = nil
		}
		ns.totals.Merge(d)
		if inOrder && f.Delta.Gauges != nil {
			// Merge adds gauges; last-write is the wanted semantics.
			for name, v := range f.Delta.Gauges {
				ns.totals.Gauges[name] = v
			}
		}
	}

	if inOrder {
		ns.lastSeen = now
		ns.lastAt = f.At
		ns.exporterFrameDrops = f.FramesDropped
		ns.exporterSpanDrops = f.SpansDropped
		if f.Regressions > ns.exporterRegression {
			c.regressions.Add(f.Regressions - ns.exporterRegression)
			ns.exporterRegression = f.Regressions
		}
		if f.Beacon != nil {
			if f.Beacon.Name != "" {
				ns.name = f.Beacon.Name
			}
			if !f.Beacon.ID.IsZero() {
				ns.id = f.Beacon.ID
			}
			if f.Beacon.Level != ns.level {
				ns.level = f.Beacon.Level
				ns.noteLevelChange(now)
			}
			ns.window = f.Beacon.Window
		}
		ns.appendSample(now)
	}
}

// appendSample stores one cumulative point in the node's ring.
func (ns *nodeState) appendSample(now des.Time) {
	counters := make(map[string]uint64, len(ns.totals.Counters))
	for k, v := range ns.totals.Counters {
		counters[k] = v
	}
	gauges := make(map[string]int64, len(ns.totals.Gauges))
	for k, v := range ns.totals.Gauges {
		gauges[k] = v
	}
	ns.ring[ns.ringNext] = Sample{
		At: ns.lastAt, Seen: now,
		Level: ns.level, Window: ns.window,
		Counters: counters, Gauges: gauges,
	}
	ns.ringNext = (ns.ringNext + 1) % len(ns.ring)
	if ns.ringCount < len(ns.ring) {
		ns.ringCount++
	}
}

// samples returns up to last stored points, oldest first.
func (ns *nodeState) samples(last int) []Sample {
	if last <= 0 || last > ns.ringCount {
		last = ns.ringCount
	}
	out := make([]Sample, 0, last)
	start := ns.ringNext - last
	if start < 0 {
		start += len(ns.ring)
	}
	for i := 0; i < last; i++ {
		out = append(out, ns.ring[(start+i)%len(ns.ring)])
	}
	return out
}

// eventRate returns the counter-activity rate (events per virtual
// second) over the last `window` stored samples, and whether activity
// was completely flat across that window.
func (ns *nodeState) eventRate(window int) (rate float64, flat bool) {
	if ns.ringCount < 2 {
		return 0, false
	}
	s := ns.samples(window)
	first, last := s[0], s[len(s)-1]
	dAct := counterActivity(last.Counters) - counterActivity(first.Counters)
	dt := (last.At - first.At).Seconds()
	if dt <= 0 {
		return 0, dAct == 0
	}
	return float64(dAct) / dt, dAct == 0
}

// noteLevelChange records a flap-detector event, keeping the slice
// bounded.
func (ns *nodeState) noteLevelChange(now des.Time) {
	const keep = 64
	ns.levelAt = append(ns.levelAt, now)
	if len(ns.levelAt) > keep {
		ns.levelAt = ns.levelAt[len(ns.levelAt)-keep:]
	}
}

// levelChangesSince counts level changes at or after cutoff.
func (ns *nodeState) levelChangesSince(cutoff des.Time) int {
	n := 0
	for _, at := range ns.levelAt {
		if at >= cutoff {
			n++
		}
	}
	return n
}

// NodeTotals returns a node's reconstructed instrument snapshot (a deep
// copy) and whether the node is known.
func (c *Collector) NodeTotals(addr wire.Addr) (metrics.Snapshot, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ns, ok := c.nodes[addr]
	if !ok {
		return metrics.Snapshot{}, false
	}
	var out metrics.Snapshot
	out.Merge(ns.totals)
	return out, true
}

// NodeStats reports one node's frame accounting: frames received,
// frames missing on the wire (sequence gaps), and the exporter's own
// reported frame/span drops.
func (c *Collector) NodeStats(addr wire.Addr) (received, missing, exporterFrameDrops, exporterSpanDrops uint64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ns, found := c.nodes[addr]
	if !found {
		return 0, 0, 0, 0, false
	}
	return ns.framesReceived, ns.framesMissing, ns.exporterFrameDrops, ns.exporterSpanDrops, true
}

// Aggregate merges every node's totals into one cluster snapshot.
func (c *Collector) Aggregate() metrics.Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out metrics.Snapshot
	for _, ns := range c.nodes {
		out.Merge(ns.totals)
	}
	return out
}

// SelfMetrics snapshots the collector's own instruments.
func (c *Collector) SelfMetrics() metrics.Snapshot { return c.reg.Snapshot() }

// Health computes the current health document.
func (c *Collector) Health() HealthDoc {
	now := c.cfg.Clock()
	c.mu.Lock()
	doc := HealthDoc{
		AtSeconds:     now.Seconds(),
		BeaconSeconds: c.cfg.BeaconInterval.Seconds(),
		Nodes:         make([]NodeHealth, 0, len(c.nodes)),
	}
	for _, ns := range c.nodes {
		doc.Nodes = append(doc.Nodes, scoreNode(ns, now, c.cfg.BeaconInterval))
	}
	c.mu.Unlock()
	sort.Slice(doc.Nodes, func(i, j int) bool { return doc.Nodes[i].Addr < doc.Nodes[j].Addr })
	doc.Alerts = summarize(doc.Nodes)
	return doc
}

// nodeLabel renders an address for humans when no name beacon arrived.
func nodeLabel(addr uint64) string {
	a := wire.Addr(addr)
	ip, port := a.IPv4()
	if port != 0 {
		return fmt.Sprintf("%d.%d.%d.%d:%d", ip[0], ip[1], ip[2], ip[3], port)
	}
	return fmt.Sprintf("node-%d", addr)
}

// --- HTTP surface ------------------------------------------------------

// Handler returns the collector's HTTP mux: /metrics, /timeseries,
// /health.
func (c *Collector) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", c.serveMetrics)
	mux.HandleFunc("/timeseries", c.serveTimeseries)
	mux.HandleFunc("/health", c.serveHealth)
	return mux
}

func (c *Collector) serveMetrics(w http.ResponseWriter, r *http.Request) {
	snap := c.Aggregate()
	snap.Merge(c.reg.Snapshot())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	snap.WritePrometheus(w)
}

func (c *Collector) serveHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(c.Health())
}

// lookupNode resolves ?node= by beacon name or numeric address.
func (c *Collector) lookupNode(key string) *nodeState {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, err := strconv.ParseUint(key, 10, 64); err == nil {
		if ns, ok := c.nodes[wire.Addr(n)]; ok {
			return ns
		}
	}
	for _, ns := range c.nodes {
		if ns.name == key || nodeLabel(uint64(ns.addr)) == key {
			return ns
		}
	}
	return nil
}

// serveTimeseries renders sample windows:
//
//	/timeseries?node=<name|addr>[&last=N][&format=json|csv][&fields=a,b,c:p99]
//
// Each field resolves to a counter name, else a gauge name, else a
// histogram percentile "name:pNN" (percentiles read the node's
// accumulated histogram, so they are as-of now, not per-sample).
// Without ?node= the known nodes are listed.
func (c *Collector) serveTimeseries(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	key := q.Get("node")
	if key == "" {
		c.mu.Lock()
		names := make([]string, 0, len(c.nodes))
		for _, ns := range c.nodes {
			label := ns.name
			if label == "" {
				label = nodeLabel(uint64(ns.addr))
			}
			names = append(names, fmt.Sprintf("%s addr=%d samples=%d", label, ns.addr, ns.ringCount))
		}
		c.mu.Unlock()
		sort.Strings(names)
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "known nodes (%d); pass ?node=<name|addr>\n", len(names))
		for _, n := range names {
			fmt.Fprintln(w, n)
		}
		return
	}
	ns := c.lookupNode(key)
	if ns == nil {
		http.Error(w, "unknown node "+key, http.StatusNotFound)
		return
	}
	last, _ := strconv.Atoi(q.Get("last"))
	c.mu.Lock()
	samples := ns.samples(last)
	totals := metrics.Snapshot{}
	totals.Merge(ns.totals)
	c.mu.Unlock()

	if q.Get("format") == "csv" {
		fields := strings.Split(q.Get("fields"), ",")
		if q.Get("fields") == "" {
			fields = nil
		}
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		writeSamplesCSV(w, samples, totals, fields)
		return
	}
	type sampleJSON struct {
		AtSeconds   float64           `json:"at_seconds"`
		SeenSeconds float64           `json:"seen_seconds"`
		Level       int               `json:"level"`
		Window      int               `json:"window"`
		Counters    map[string]uint64 `json:"counters"`
		Gauges      map[string]int64  `json:"gauges"`
	}
	out := make([]sampleJSON, 0, len(samples))
	for _, s := range samples {
		out = append(out, sampleJSON{
			AtSeconds:   s.At.Seconds(),
			SeenSeconds: s.Seen.Seconds(),
			Level:       s.Level,
			Window:      s.Window,
			Counters:    s.Counters,
			Gauges:      s.Gauges,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

// writeSamplesCSV renders the window: fixed columns, then one column
// per requested field (counter, gauge, or "name:pNN" percentile of the
// accumulated histogram).
func writeSamplesCSV(w http.ResponseWriter, samples []Sample, totals metrics.Snapshot, fields []string) {
	header := append([]string{"seconds", "level", "window"}, fields...)
	fmt.Fprintln(w, strings.Join(header, ","))
	for _, s := range samples {
		row := fmt.Sprintf("%.3f,%d,%d", s.At.Seconds(), s.Level, s.Window)
		for _, f := range fields {
			if name, q, ok := splitPercentile(f); ok {
				row += fmt.Sprintf(",%g", totals.Histograms[name].Quantile(q))
				continue
			}
			if v, ok := s.Counters[f]; ok {
				row += fmt.Sprintf(",%d", v)
				continue
			}
			row += fmt.Sprintf(",%d", s.Gauges[f])
		}
		fmt.Fprintln(w, row)
	}
}

// splitPercentile parses a "name:pNN" column spec.
func splitPercentile(field string) (name string, q float64, ok bool) {
	i := strings.LastIndex(field, ":p")
	if i < 0 {
		return "", 0, false
	}
	n, err := strconv.Atoi(field[i+2:])
	if err != nil || n < 0 || n > 100 {
		return "", 0, false
	}
	return field[:i], float64(n) / 100, true
}
