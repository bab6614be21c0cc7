// Quickstart: bring up a small PeerWindow overlay, attach info to
// pointers, and read another peer's window.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"peerwindow"
)

func main() {
	opts := peerwindow.Defaults()
	opts.Budget = 1e6 // plenty: everyone collects the whole system
	ov, err := peerwindow.NewOverlay(opts)
	if err != nil {
		log.Fatal(err)
	}
	defer ov.Close()

	// The first peer bootstraps the overlay; the rest join through the
	// paper's four-step process (§4.3).
	names := []string{"alice", "bob", "carol", "dave", "erin", "frank"}
	for _, name := range names {
		if _, err := ov.Spawn(name); err != nil {
			log.Fatalf("spawn %s: %v", name, err)
		}
		// Give each join's multicast a moment to reach everyone.
		ov.Settle(20 * time.Second)
	}

	// Attach application info to some pointers (§3): every window holding
	// the pointer learns the change via multicast.
	bob, _ := ov.Peer("bob")
	bob.SetInfo([]byte("os=linux;zone=eu"))
	carol, _ := ov.Peer("carol")
	carol.SetInfo([]byte("os=openbsd;zone=us"))
	ov.Settle(2 * time.Minute)

	// View is an immutable, indexed snapshot of alice's window: obtaining
	// it is one atomic load, and the selection helpers below answer from
	// incremental indexes instead of rescanning all pointers.
	alice, _ := ov.Peer("alice")
	view := alice.View()
	fmt.Printf("alice (level %d) sees %d peers:\n", alice.Level(), view.Len())
	view.Each(func(r peerwindow.Ref) bool {
		fmt.Printf("  %s…  level=%d  info=%q\n", r.ID()[:8], r.Level(), r.Info())
		return true
	})

	// Select partners locally — no queries hit the network.
	if linux := view.InfoContains("os=linux"); len(linux) > 0 {
		fmt.Printf("first linux peer alice found: %s…\n", linux[0].ID[:8])
	}
	strongest := view.Strongest(2)
	fmt.Printf("two strongest peers: level %d and %d\n",
		strongest[0].Level, strongest[1].Level)

	fmt.Printf("alice's maintenance input: %.0f bit/s of virtual time\n",
		alice.InputRate())
}
