// Command pwnode runs one PeerWindow node over real UDP — the
// deployable form of the protocol. Start a first node, then point
// others at it:
//
//	pwnode -listen 127.0.0.1:7001 -name seed &
//	pwnode -listen 127.0.0.1:7002 -name alice -join 127.0.0.1:7001 -info os=linux &
//	pwnode -listen 127.0.0.1:7003 -name bob   -join 127.0.0.1:7001 &
//
// Each node prints its window periodically; SIGINT/SIGTERM triggers a
// polite leave (the departure is multicast before the socket closes).
// The -fast flag compresses the protocol timers ~50× for local demos.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"peerwindow/internal/core"
	"peerwindow/internal/des"
	"peerwindow/internal/udptransport"
	"peerwindow/internal/wire"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:0", "UDP address to bind")
		join      = flag.String("join", "", "bootstrap host:port (empty: start a fresh overlay)")
		name      = flag.String("name", "", "node name (seeds the identifier; default: the bind address)")
		budget    = flag.Float64("budget", 5000, "collection budget in bit/s")
		info      = flag.String("info", "", "application info to attach to the pointer")
		interval  = flag.Duration("interval", 10*time.Second, "status print interval")
		fast      = flag.Bool("fast", false, "compress protocol timers ~50x for local demos")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /debug/window, /debug/query, /debug/spans and /debug/pprof over HTTP on this address (empty: disabled)")
		telemAddr = flag.String("telemetry-addr", "", "push telemetry frames to a pwcollect UDP address (empty: disabled, zero overhead)")
		telemIvl  = flag.Duration("telemetry-interval", 2*time.Second, "telemetry flush interval (jittered ±20%)")
	)
	flag.Parse()

	cfg := core.DefaultConfig()
	if *fast {
		cfg.ProbeInterval = 600 * des.Millisecond
		cfg.ProbeTimeout = 150 * des.Millisecond
		cfg.AckTimeout = 150 * des.Millisecond
		cfg.ForwardDelay = 20 * des.Millisecond
		cfg.ShiftCheckInterval = 2 * des.Second
		cfg.MeterWindow = 4 * des.Second
		cfg.ReconcileDelay = 1 * des.Second
	}
	nodeName := *name
	if nodeName == "" {
		nodeName = *listen
	}
	n, err := udptransport.Listen(*listen, nodeName, *budget, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	self := n.Self()
	ip, port := self.Addr.IPv4()
	fmt.Printf("pwnode %s: listening on %d.%d.%d.%d:%d id=%s\n",
		nodeName, ip[0], ip[1], ip[2], ip[3], port, self.ID)

	if *debugAddr != "" {
		ln, err := startDebugServer(*debugAddr, nodeName, n)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("debug server on http://%s (/metrics, /debug/window, /debug/query, /debug/spans)\n", ln.Addr())
	}

	var telemStop chan struct{}
	var telemDone chan struct{}
	if *telemAddr != "" {
		stop, done, err := startTelemetry(*telemAddr, *telemIvl, nodeName, n)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		telemStop, telemDone = stop, done
		fmt.Printf("telemetry to udp://%s every %v\n", *telemAddr, *telemIvl)
	}

	if *join == "" {
		n.Bootstrap()
		fmt.Println("bootstrapped a fresh overlay")
	} else {
		boot, err := resolvePointer(*join)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := n.Join(boot, 30*time.Second); err != nil {
			fmt.Fprintf(os.Stderr, "join %s: %v\n", *join, err)
			os.Exit(1)
		}
		fmt.Printf("joined via %s at level %d\n", *join, n.Level())
	}
	if *info != "" {
		n.SetInfo([]byte(*info))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			window := n.Query().View().Entries()
			sent, recv := n.Counters()
			fmt.Printf("window=%d level=%d messages out/in=%d/%d\n",
				len(window), n.Level(), sent, recv)
			for _, e := range window {
				pip, pport := e.Addr.IPv4()
				fmt.Printf("  %s… %d.%d.%d.%d:%d L%d %q\n",
					e.ID.String()[:8], pip[0], pip[1], pip[2], pip[3], pport,
					e.Level, e.Info())
			}
		case <-sig:
			fmt.Println("leaving politely…")
			n.Leave()
			if telemStop != nil {
				// One final flush so the collector sees the shutdown totals.
				close(telemStop)
				<-telemDone
			}
			return
		}
	}
}

// resolvePointer builds a bootstrap pointer from host:port. Only the
// address matters for the first message; the bootstrap's identity is
// learned from its replies.
func resolvePointer(hostport string) (wire.Pointer, error) {
	addr, err := net.ResolveUDPAddr("udp4", hostport)
	if err != nil {
		return wire.Pointer{}, fmt.Errorf("pwnode: %w", err)
	}
	ip4 := addr.IP.To4()
	if ip4 == nil {
		return wire.Pointer{}, fmt.Errorf("pwnode: %s is not IPv4", hostport)
	}
	var ip [4]byte
	copy(ip[:], ip4)
	return wire.Pointer{Addr: wire.AddrFromIPv4(ip, uint16(addr.Port))}, nil
}
