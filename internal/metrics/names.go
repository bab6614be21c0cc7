package metrics

import (
	"fmt"
	"strings"
)

// ValidName reports whether name can name an instrument: it starts with
// a letter, is '.'-separated non-empty segments of [a-z0-9_-], and does
// not carry the pw namespace that the Prometheus exposition adds ("pw."
// or "pw_"). These are exactly the names promName turns into valid pw_*
// Prometheus names ("net.send.heartbeat-ack" ->
// "pw_net_send_heartbeat_ack"). Three places enforce it: a Registry when
// it creates or registers an instrument (a bad name panics), core's
// instrument table when the program starts (the same), and the telemetry
// frame decoder (a bad name is a decode error), so neither a typo nor a
// remote frame can put a malformed line into a /metrics exposition.
func ValidName(name string) bool {
	if name == "" || name[0] < 'a' || name[0] > 'z' ||
		strings.HasPrefix(name, "pw.") || strings.HasPrefix(name, "pw_") {
		return false
	}
	for i := 1; i < len(name); i++ {
		switch c := name[i]; {
		case c == '.':
			if name[i-1] == '.' || i == len(name)-1 {
				return false
			}
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// mustBeValid panics on a name ValidName rejects: minting one is a
// programmer error.
func mustBeValid(name string) {
	if !ValidName(name) {
		panic(fmt.Sprintf("metrics: invalid instrument name %q", name))
	}
}

// Canonical names of the network-layer instruments, shared by the
// simulator's message accounting (the in-process overlay's net.* rows) and
// the UDP transport (alternative substrates for the same overlay, so their
// instruments must line up). Protocol-level names live with their owner
// in internal/core (core.Metric*); this block owns the net.* namespace.
// Each name is declared once, as a Metric* constant like these; the
// Prometheus exposition renders them under the pw_ prefix
// ("net.send_bytes" -> "pw_net_send_bytes").
const (
	// Per-message-type families; the wire.MsgType name is the suffix.
	MetricNetSendPrefix     = "net.send."
	MetricNetRecvPrefix     = "net.recv."
	MetricNetDropPrefix     = "net.drop."
	MetricNetSendBitsPrefix = "net.send_bits."

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
