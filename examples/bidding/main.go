// Storage bidding over PeerWindow, after Cooper & Garcia-Molina's
// data-preservation trading that the paper's introduction and §3 cite:
// "bidding systems can attach nodes' basic status, such as storage
// space, bandwidth, availability, software/hardware summary, approximate
// bid, etc."
//
// Every peer publishes `gb=<free space>;ask=<price per GB>` in its
// pointer. A peer that needs to place replicas runs a sealed-bid
// selection entirely over its local window — cheapest asks first,
// capacity permitting — without a brokerage service or any query
// traffic.
//
// Run with:
//
//	go run ./examples/bidding
package main

import (
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	"peerwindow"
)

type offer struct {
	id  string
	gb  int
	ask int // price per GB, arbitrary currency
}

func parseOffer(id string, info []byte) (offer, bool) {
	s := string(info)
	var o offer
	o.id = id
	ok := 0
	for _, field := range strings.Split(s, ";") {
		kv := strings.SplitN(field, "=", 2)
		if len(kv) != 2 {
			continue
		}
		v, err := strconv.Atoi(kv[1])
		if err != nil {
			continue
		}
		switch kv[0] {
		case "gb":
			o.gb = v
			ok++
		case "ask":
			o.ask = v
			ok++
		}
	}
	return o, ok == 2
}

func main() {
	opts := peerwindow.Defaults()
	opts.Budget = 1e6
	opts.Seed = 17
	ov, err := peerwindow.NewOverlay(opts)
	if err != nil {
		log.Fatal(err)
	}
	defer ov.Close()

	sellers := []struct {
		name string
		gb   int
		ask  int
	}{
		{"vault-a", 500, 9},
		{"vault-b", 120, 4},
		{"vault-c", 60, 2},
		{"vault-d", 800, 12},
		{"vault-e", 250, 6},
		{"vault-f", 40, 3},
		{"vault-g", 300, 5},
	}
	for _, s := range sellers {
		info := peerwindow.WithInfo([]byte(fmt.Sprintf("gb=%d;ask=%d", s.gb, s.ask)))
		if _, err := ov.Spawn(s.name, info); err != nil {
			log.Fatalf("spawn %s: %v", s.name, err)
		}
		ov.Settle(20 * time.Second)
	}
	buyer, err := ov.Spawn("buyer")
	if err != nil {
		log.Fatal(err)
	}
	ov.Settle(2 * time.Minute)

	// The buyer wants 400 GB placed as cheaply as possible. TopK over the
	// buyer's View orders the advertised offers by ask in one bounded
	// scan (negated ask turns cheapest-first into the maximization TopK
	// performs); pointers without an offer are excluded by the score
	// function.
	view := buyer.View()
	book := view.TopK(view.Len(), func(r peerwindow.Ref) (float64, bool) {
		o, ok := parseOffer(r.ID(), []byte(r.Info()))
		if !ok {
			return 0, false
		}
		return -float64(o.ask), true
	})
	var offers []offer
	for _, p := range book {
		if o, ok := parseOffer(p.ID, p.Info); ok {
			offers = append(offers, o)
		}
	}

	fmt.Printf("buyer window: %d pointers, %d sellers\n\n", view.Len(), len(offers))
	fmt.Println("order book (from attached info, no queries sent):")
	for _, o := range offers {
		fmt.Printf("  %s…  %4d GB @ %2d/GB\n", o.id[:8], o.gb, o.ask)
	}

	need := 400
	cost := 0
	fmt.Printf("\nplacement for %d GB, cheapest-first:\n", need)
	for _, o := range offers {
		if need <= 0 {
			break
		}
		take := o.gb
		if take > need {
			take = need
		}
		cost += take * o.ask
		need -= take
		fmt.Printf("  %s…  take %3d GB @ %2d/GB\n", o.id[:8], take, o.ask)
	}
	if need > 0 {
		fmt.Printf("unfilled: %d GB (not enough capacity in the window)\n", need)
	}
	fmt.Printf("total cost: %d\n", cost)
}
