package main

// The -telemetry-addr push path: a telemetry.Exporter flushing this
// node's instruments, beacon and spans to a pwcollect UDP address on a
// jittered wall-clock loop. When the flag is unset nothing here runs —
// the node pays zero telemetry cost.

import (
	"fmt"
	"net"
	"time"

	"peerwindow/internal/telemetry"
	"peerwindow/internal/transport"
)

// telemetrySpanCapacity bounds the span buffer drained by the exporter
// when -debug-addr has not already attached one (EnableSpans returns the
// buffer in place, so the two consumers share it).
const telemetrySpanCapacity = 8192

// startTelemetry dials the collector and starts the flush loop. Closing
// the returned stop channel triggers one final flush; done closes when
// it has been sent.
func startTelemetry(addr string, interval time.Duration, name string, n *transport.Host) (stop, done chan struct{}, err error) {
	raddr, err := net.ResolveUDPAddr("udp4", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("pwnode: telemetry: %w", err)
	}
	conn, err := net.DialUDP("udp4", nil, raddr)
	if err != nil {
		return nil, nil, fmt.Errorf("pwnode: telemetry: %w", err)
	}

	// Each frame is one datagram. A full socket buffer (or a transient
	// network error) reports back as a refused frame, and the next flush
	// carries its deltas instead of losing them.
	sink := telemetry.SinkFunc(func(b []byte) error {
		_, err := conn.Write(b)
		return err
	})
	self := n.Self()
	e := telemetry.NewExporter(telemetry.ExporterConfig{
		Node:  self.Addr,
		Name:  name,
		ID:    self.ID,
		Spans: n.EnableSpans(telemetrySpanCapacity),
	}, sink)

	stop = make(chan struct{})
	done = make(chan struct{})
	go func() {
		defer close(done)
		defer conn.Close()
		e.Run(telemetry.LiveConfig{
			Interval: interval,
			Now:      n.Now,
			Snapshot: n.MetricsSnapshot,
			Beacon: func() telemetry.Beacon {
				return telemetry.Beacon{
					Name:   name,
					ID:     self.ID,
					Level:  n.Level(),
					Window: n.Query().View().Len(),
				}
			},
		}, stop)
	}()
	return stop, done, nil
}
