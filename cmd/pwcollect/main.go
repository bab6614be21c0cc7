// Command pwcollect is the cluster telemetry collector: it ingests the
// delta-encoded frames pwnode exporters push over UDP and serves the
// aggregated cluster view over HTTP:
//
//	/metrics     cluster-wide Prometheus exposition (all nodes merged,
//	             plus the collector's own telemetry.* instruments)
//	/timeseries  per-node sample windows, JSON or CSV
//	/health      per-node health scores and alert lines (pwtop's feed)
//
// Point nodes at it:
//
//	pwcollect -listen 127.0.0.1:7100 -http 127.0.0.1:7101 &
//	pwnode -listen 127.0.0.1:7001 -name seed -telemetry-addr 127.0.0.1:7100 &
//
// The -beacon flag must match the nodes' -telemetry-interval: staleness
// (and therefore crash detection) is measured in units of it.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"peerwindow/internal/des"
	"peerwindow/internal/telemetry"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:7100", "UDP address to receive telemetry frames on")
		httpAddr = flag.String("http", "127.0.0.1:7101", "HTTP address for /metrics, /timeseries and /health")
		beacon   = flag.Duration("beacon", 2*time.Second, "expected exporter flush interval (staleness unit)")
		ring     = flag.Int("ring", 512, "timeseries samples retained per node")
		spans    = flag.Int("spans", 16384, "spans retained across all nodes (0: disable)")
		interval = flag.Duration("interval", 30*time.Second, "status print interval (0: quiet)")
	)
	flag.Parse()

	start := time.Now()
	c := telemetry.NewCollector(telemetry.CollectorConfig{
		Clock:          func() des.Time { return des.Time(time.Since(start)) },
		RingCapacity:   *ring,
		SpanCapacity:   *spans,
		BeaconInterval: des.Time(*beacon),
	})

	uaddr, err := net.ResolveUDPAddr("udp4", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pwcollect:", err)
		os.Exit(1)
	}
	conn, err := net.ListenUDP("udp4", uaddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pwcollect:", err)
		os.Exit(1)
	}
	defer conn.Close()

	ln, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pwcollect:", err)
		os.Exit(1)
	}
	srv := &http.Server{Handler: c.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)

	fmt.Printf("pwcollect: frames on udp://%s, http://%s (/metrics, /timeseries, /health)\n",
		conn.LocalAddr(), ln.Addr())

	go func() {
		buf := make([]byte, 65536)
		for {
			n, _, err := conn.ReadFromUDP(buf)
			if err != nil {
				return // socket closed on shutdown
			}
			// Ingest copies what it keeps; decode errors are counted in
			// telemetry.frames_bad and are not fatal.
			c.Ingest(buf[:n])
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	var tick <-chan time.Time
	if *interval > 0 {
		t := time.NewTicker(*interval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-tick:
			doc := c.Health()
			self := c.SelfMetrics()
			fmt.Printf("nodes=%d frames=%d missing=%d bad=%d spans=%d alerts=%d\n",
				len(doc.Nodes),
				self.Counters[telemetry.MetricTelemetryFramesReceived],
				self.Counters[telemetry.MetricTelemetryFramesMissing],
				self.Counters[telemetry.MetricTelemetryFramesBad],
				self.Counters[telemetry.MetricTelemetrySpansReceived],
				len(doc.Alerts))
			for _, a := range doc.Alerts {
				fmt.Println("  alert:", a)
			}
		case <-sig:
			return
		}
	}
}
