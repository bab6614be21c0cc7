package telemetry

// Canonical names of the telemetry plane's instruments and health
// signals. Like the net.* block in internal/metrics, every name is
// declared exactly once as a Metric* constant in lowercase dotted
// snake_case — pwlint's metricname analyzer sweeps these too, and its
// HealthScores registrar rule requires every score written into a
// health report to spell its name through one of the MetricHealth*
// constants below.
const (
	// Collector self-instruments, exposed on /metrics alongside the
	// cluster aggregate.
	MetricTelemetryFramesReceived = "telemetry.frames_received"
	MetricTelemetryFramesBad      = "telemetry.frames_bad"
	MetricTelemetryFramesLate     = "telemetry.frames_late"
	MetricTelemetryFramesMissing  = "telemetry.frames_missing"
	MetricTelemetrySpansReceived  = "telemetry.spans_received"
	MetricTelemetryRegressions    = "telemetry.counter_regressions"
	MetricTelemetryNodes          = "telemetry.nodes"
	MetricTelemetryBytesReceived  = "telemetry.bytes_received"

	// Per-node health signals: the raw inputs of the score, keyed into
	// the /health document's scores map.
	MetricHealthScore             = "health.score"
	MetricHealthStalenessSeconds  = "health.heartbeat_staleness_seconds"
	MetricHealthDetectP99Seconds  = "health.detect_latency_p99_seconds"
	MetricHealthSpanDropRate      = "health.span_drop_rate"
	MetricHealthFrameLossRate     = "health.frame_loss_rate"
	MetricHealthSendRecvAsymmetry = "health.send_recv_asymmetry"
	MetricHealthEventsPerSec      = "health.events_per_sec"
)
