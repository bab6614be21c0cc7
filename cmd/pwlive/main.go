// Command pwlive runs an in-process overlay in virtual time: peers join,
// attach info, optionally churn, and the tool prints window sizes, levels
// and measured maintenance bandwidth minute by minute. The same flags
// give the same output.
//
//	pwlive -peers 24 -duration 10m
//	pwlive -peers 16 -churn -crash 0.5
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"peerwindow"

	"peerwindow/internal/core"
	"peerwindow/internal/metrics"
	"peerwindow/internal/xrand"
)

func main() {
	var (
		peers    = flag.Int("peers", 16, "number of peers to spawn")
		duration = flag.Duration("duration", 8*time.Minute, "virtual run time")
		budget   = flag.Float64("budget", 1e6, "default collection budget (bit/s)")
		churn    = flag.Bool("churn", false, "replace a random peer periodically")
		traceCap = flag.Int("trace", 0, "keep the last N spans (trees, probe rounds, retries, losses) and dump them as JSONL at exit")
		crash    = flag.Float64("crash", 0.5, "fraction of churn departures that crash silently")
		seed     = flag.Uint64("seed", 1, "random seed")
	)
	flag.Parse()
	if *peers < 2 {
		fmt.Fprintln(os.Stderr, "need at least 2 peers")
		os.Exit(2)
	}

	opts := peerwindow.Defaults()
	opts.Budget = *budget
	opts.Seed = *seed
	opts.TraceCapacity = *traceCap
	ov, err := peerwindow.NewOverlay(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer ov.Close()

	rng := xrand.New(*seed)
	for i := 0; i < *peers; i++ {
		name := fmt.Sprintf("peer-%03d", i)
		info := peerwindow.WithInfo([]byte(fmt.Sprintf("born=%d", i)))
		if _, err := ov.Spawn(name, info); err != nil {
			fmt.Fprintf(os.Stderr, "spawn %s: %v\n", name, err)
			os.Exit(1)
		}
		ov.Settle(15 * time.Second)
	}
	fmt.Printf("overlay up: %d peers\n", len(ov.Peers()))

	ticks := int(duration.Minutes())
	if ticks < 1 {
		ticks = 1
	}
	next := *peers
	for tick := 1; tick <= ticks; tick++ {
		ov.Settle(1 * time.Minute)
		if *churn && tick%2 == 0 {
			live := ov.Peers()
			if len(live) > 2 {
				victim := live[rng.Intn(len(live))]
				if rng.Float64() < *crash {
					fmt.Printf("  t=%dm churn: %s crashes\n", tick, victim.Name())
					victim.Crash()
				} else {
					fmt.Printf("  t=%dm churn: %s leaves\n", tick, victim.Name())
					victim.Leave()
				}
			}
			name := fmt.Sprintf("peer-%03d", next)
			next++
			if _, err := ov.Spawn(name, peerwindow.WithInfo([]byte("newcomer"))); err == nil {
				fmt.Printf("  t=%dm churn: %s joins\n", tick, name)
			} else {
				fmt.Printf("  t=%dm churn: %s failed to join: %v\n", tick, name, err)
			}
		}
		live := ov.Peers()
		minW, maxW, sumRate := 1<<30, 0, 0.0
		for _, p := range live {
			w := p.View().Len()
			if w < minW {
				minW = w
			}
			if w > maxW {
				maxW = w
			}
			sumRate += p.InputRate()
		}
		fmt.Printf("t=%dm: %d peers, window sizes [%d..%d], mean maintenance %.0f bit/s\n",
			tick, len(live), minW, maxW, sumRate/float64(len(live)))
	}

	fmt.Println("\nfinal state:")
	for _, p := range ov.Peers() {
		fmt.Printf("  %-10s level=%d window=%3d in=%.0f bit/s\n",
			p.Name(), p.Level(), p.View().Len(), p.InputRate())
	}
	m := ov.Metrics()
	var msgs, bits, dropped uint64
	for name, v := range m.Counters {
		switch {
		case strings.HasPrefix(name, metrics.MetricNetSendBitsPrefix):
			bits += v
		case strings.HasPrefix(name, metrics.MetricNetSendPrefix):
			msgs += v
		case strings.HasPrefix(name, metrics.MetricNetDropPrefix):
			dropped += v
		}
	}
	fmt.Printf("\ntraffic: %d messages, %.1f kbit total, %d dropped\n",
		msgs, float64(bits)/1000, dropped)
	fmt.Printf("protocol: %d multicasts originated, %d deliveries, %d ack retries, %d probe failures\n",
		m.Counter(core.MetricMulticastOriginated), m.Counter(core.MetricMulticastDelivered),
		m.Counter(core.MetricAckRetries), m.Counter(core.MetricProbeFailures))
	if *traceCap > 0 {
		fmt.Println("\nlast spans (JSONL, as pwtrace reads them):")
		if _, err := ov.DumpTrace(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "trace dump:", err)
		}
	}
}
