// Real sockets: a PeerWindow overlay over UDP on the loopback
// interface. The same protocol engine that reproduces the paper's
// figures runs here with every message a datagram and every pointer
// carrying a routable IPv4:port endpoint. The demo builds a small
// overlay, shows the converged windows, crashes a node, and watches
// ring probing announce the death.
//
// Protocol timers are scaled down (~50×) so the demo finishes in
// seconds; the ratios between probe interval, ack timeout and forwarding
// delay are the paper's.
//
// Run with:
//
//	go run ./examples/udpoverlay
package main

import (
	"fmt"
	"log"
	"time"

	"peerwindow/internal/core"
	"peerwindow/internal/des"
	"peerwindow/internal/transport"
	"peerwindow/internal/udptransport"
)

func main() {
	cfg := core.DefaultConfig()
	cfg.ProbeInterval = 600 * des.Millisecond
	cfg.ProbeTimeout = 150 * des.Millisecond
	cfg.AckTimeout = 150 * des.Millisecond
	cfg.ForwardDelay = 20 * des.Millisecond
	cfg.ShiftCheckInterval = 2 * des.Second
	cfg.MeterWindow = 4 * des.Second
	cfg.ReconcileDelay = 1 * des.Second

	const count = 6
	nodes := make([]*transport.Host, 0, count)
	for i := 0; i < count; i++ {
		n, err := udptransport.Listen("127.0.0.1:0", fmt.Sprintf("peer-%d", i), 1e9, cfg)
		if err != nil {
			log.Fatalf("listen: %v", err)
		}
		nodes = append(nodes, n)
		self := n.Self()
		ip, port := self.Addr.IPv4()
		fmt.Printf("peer-%d listening on %d.%d.%d.%d:%d id=%s…\n",
			i, ip[0], ip[1], ip[2], ip[3], port, self.ID.String()[:8])
		if i == 0 {
			n.Bootstrap()
			continue
		}
		if err := n.Join(nodes[0].Self(), 10*time.Second); err != nil {
			log.Fatalf("join %d: %v", i, err)
		}
		time.Sleep(200 * time.Millisecond)
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()

	time.Sleep(time.Second)
	fmt.Println("\nconverged windows:")
	for i, n := range nodes {
		sent, recv := n.Counters()
		fmt.Printf("  peer-%d: %d pointers, %d messages out, %d in\n",
			i, n.Query().View().Len(), sent, recv)
	}

	victim := nodes[2]
	victimID := victim.Self().ID
	fmt.Printf("\ncrashing peer-2 (%s…) without notice\n", victimID.String()[:8])
	victim.Close()

	deadline := time.Now().Add(8 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(300 * time.Millisecond)
		clean := true
		for i, n := range nodes {
			if i == 2 {
				continue
			}
			if _, held := n.Query().View().Get(victimID); held {
				clean = false
			}
		}
		if clean {
			fmt.Println("ring probing detected the crash; every window is clean")
			return
		}
	}
	fmt.Println("warning: crash cleanup incomplete within the deadline")
}
