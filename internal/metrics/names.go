package metrics

// Canonical names of the network-layer instruments, shared by the
// in-process transport and the UDP transport (alternative substrates for
// the same overlay, so their instruments must line up). Protocol-level
// names live with their owner in internal/core (core.Metric*); this
// block owns the net.* namespace. pwlint's metricname analyzer enforces
// that every metric name in the repository is declared exactly once, in
// a Metric* constant like these, in lowercase dotted snake_case — the
// Prometheus exposition renders them under the pw_ prefix
// ("net.send_bytes" -> "pw_net_send_bytes").
const (
	// Per-message-type families; the wire.MsgType name is the suffix.
	MetricNetSendPrefix     = "net.send."
	MetricNetRecvPrefix     = "net.recv."
	MetricNetDropPrefix     = "net.drop."
	MetricNetSendBitsPrefix = "net.send_bits."
	MetricNetRecvBitsPrefix = "net.recv_bits."

	// Whole-substrate instruments.
	MetricNetHosts     = "net.hosts"
	MetricNetSendBytes = "net.send_bytes"
	MetricNetRecvBytes = "net.recv_bytes"
	MetricNetGarbage   = "net.garbage_datagrams"
	MetricNetBulkSends = "net.bulk_sends"
	// MetricNetBulkRejected counts inbound TCP-sidecar transfers refused
	// over the connection cap, oversized, cut short or undecodable.
	MetricNetBulkRejected = "net.bulk_rejected"
	// MetricNetSendErrors counts messages the socket layer could not
	// send: failed datagram writes and bulk transfers that were skipped
	// over the in-flight cap or failed to dial or write.
	MetricNetSendErrors = "net.send_errors"

	// MetricNetSendUnknownDest counts sends addressed to an endpoint the
	// substrate has never heard of (a stale pointer to a recycled or
	// never-assigned address). Such messages vanish without a trace
	// otherwise — the ack machinery treats them as loss — so the counter
	// is the only way to tell routing rot from network loss.
	MetricNetSendUnknownDest = "net.send.unknown_dest"
)
