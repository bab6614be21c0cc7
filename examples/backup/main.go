// Backup-partner selection in the style of Pastiche and the cooperative
// backup schemes the paper's introduction motivates: backup systems want
// partners with a similar operating system (shared base data, cheap
// deltas) and guard replicas on partners with a *different* OS (a virus
// that wipes one platform cannot take both copies).
//
// Each peer attaches "os=<name>;rel=<version>" to its pointer; partner
// search is then a purely local scan of the PeerWindow — no flooding, no
// directory.
//
// Run with:
//
//	go run ./examples/backup
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"peerwindow"
)

// profile is the attached info of one participant.
type profile struct {
	name string
	os   string
	rel  string
}

func main() {
	opts := peerwindow.Defaults()
	opts.Budget = 1e6
	opts.Seed = 42
	ov, err := peerwindow.NewOverlay(opts)
	if err != nil {
		log.Fatal(err)
	}
	defer ov.Close()

	fleet := []profile{
		{"atlas", "linux", "6.8"},
		{"borei", "linux", "6.1"},
		{"castor", "openbsd", "7.5"},
		{"deimos", "windows", "11"},
		{"electra", "linux", "6.8"},
		{"fornax", "windows", "10"},
		{"gaspra", "openbsd", "7.4"},
		{"hydra", "linux", "5.15"},
	}
	// Spawn the first peer and subscribe to its window before the rest of
	// the fleet joins: instead of polling Window() in a loop, the
	// subscription delivers every pointer the join multicasts add as an
	// event, and a local map materialized from baseline+events tracks the
	// window exactly.
	var sub *peerwindow.Subscription
	partners := make(map[string]peerwindow.Pointer)
	for i, pr := range fleet {
		info := peerwindow.WithInfo([]byte(fmt.Sprintf("os=%s;rel=%s", pr.os, pr.rel)))
		if _, err := ov.Spawn(pr.name, info); err != nil {
			log.Fatalf("spawn %s: %v", pr.name, err)
		}
		if i == 0 {
			atlas, _ := ov.Peer(pr.name)
			sub = atlas.Subscribe(peerwindow.SubscribeBuffer(1024))
			defer sub.Close()
			sub.Baseline().Each(func(r peerwindow.Ref) bool {
				partners[r.ID()] = r.Pointer()
				return true
			})
		}
		ov.Settle(20 * time.Second)
	}
	// Let the info-change multicasts drain.
	ov.Settle(2 * time.Minute)

	if sub.Dropped() > 0 {
		log.Fatalf("subscription dropped %d events (buffer too small)", sub.Dropped())
	}

	// Fold the buffered events into the materialized window until it
	// reaches the view's epoch. Events with Epoch ≤ the baseline's are
	// already in it; removals delete.
	atlas, _ := ov.Peer("atlas")
	view := atlas.View()
	for epoch := sub.Baseline().Epoch(); epoch < view.Epoch(); {
		ev := <-sub.Events()
		if ev.Epoch <= epoch {
			continue
		}
		epoch = ev.Epoch
		switch ev.Kind {
		case peerwindow.ChangeRemoved:
			delete(partners, ev.Pointer().ID)
		default:
			p := ev.Pointer()
			partners[p.ID] = p
		}
	}
	if view.Len() != len(partners) {
		log.Fatalf("materialized window has %d entries, view has %d",
			len(partners), view.Len())
	}
	fmt.Printf("atlas collected %d pointers\n\n", len(partners))

	// Similar-OS partners (Pastiche: overlapping data, cheap backups).
	// The field index answers this without scanning the window.
	same := view.WithField("os=linux")
	fmt.Println("similar-OS candidates (cheap incremental backups):")
	for _, p := range same {
		fmt.Printf("  %s…  %s\n", p.ID[:8], p.Info)
	}

	// Different-OS partners (Lillibridge et al.: survive a monoculture
	// attack).
	diverse := view.ByInfo(func(b []byte) bool {
		s := string(b)
		return len(s) > 0 && !strings.Contains(s, "os=linux")
	})
	fmt.Println("\ndiverse-OS candidates (virus-independence replicas):")
	for _, p := range diverse {
		fmt.Printf("  %s…  %s\n", p.ID[:8], p.Info)
	}

	// A sensible placement: two similar + one diverse partner.
	if len(same) >= 2 && len(diverse) >= 1 {
		fmt.Printf("\nplacement for atlas: similar={%s…, %s…} diverse={%s…}\n",
			same[0].ID[:8], same[1].ID[:8], diverse[0].ID[:8])
	}
}
