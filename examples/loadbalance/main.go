// Load balancing over PeerWindow, after the paper's §1 motivation
// ("heavily-loaded nodes need to find lightly-loaded ones to transfer
// the overload", citing Godfrey et al.).
//
// Every peer publishes its current load in its attached info. A
// heavily-loaded peer scans its window for the lightest peers and sheds
// load to them; because windows are maintained by multicast, the
// published loads stay fresh without any directory service. The demo
// runs a few rebalancing rounds and prints the spread shrinking.
//
// Run with:
//
//	go run ./examples/loadbalance
package main

import (
	"fmt"
	"log"
	"sort"
	"strconv"
	"strings"
	"time"

	"peerwindow"
)

// parseLoad extracts the load from "load=<units>" info.
func parseLoad(info []byte) (int, bool) {
	s := string(info)
	const key = "load="
	i := strings.Index(s, key)
	if i < 0 {
		return 0, false
	}
	v, err := strconv.Atoi(s[i+len(key):])
	if err != nil {
		return 0, false
	}
	return v, true
}

func main() {
	opts := peerwindow.Defaults()
	opts.Budget = 1e6
	opts.Seed = 7
	ov, err := peerwindow.NewOverlay(opts)
	if err != nil {
		log.Fatal(err)
	}
	defer ov.Close()

	// A deliberately skewed initial assignment.
	loads := map[string]int{
		"w0": 96, "w1": 80, "w2": 64, "w3": 30,
		"w4": 12, "w5": 8, "w6": 6, "w7": 4,
	}
	names := []string{"w0", "w1", "w2", "w3", "w4", "w5", "w6", "w7"}
	for _, name := range names {
		info := peerwindow.WithInfo([]byte(fmt.Sprintf("load=%d", loads[name])))
		if _, err := ov.Spawn(name, info); err != nil {
			log.Fatalf("spawn %s: %v", name, err)
		}
		ov.Settle(20 * time.Second)
	}
	ov.Settle(2 * time.Minute)

	spread := func() (min, max int) {
		min, max = 1<<30, -1
		for _, l := range loads {
			if l < min {
				min = l
			}
			if l > max {
				max = l
			}
		}
		return min, max
	}

	min, max := spread()
	fmt.Printf("initial loads: spread [%d, %d]\n", min, max)

	for round := 1; round <= 4; round++ {
		// Each overloaded worker consults its own window (stale-tolerant,
		// fully local) and sheds half its surplus to the lightest peer it
		// sees.
		for ni, name := range names {
			p, ok := ov.Peer(name)
			if !ok {
				continue
			}
			myLoad := loads[name]
			// Collect the few lightest peers the window advertises and
			// pick one at random — shedding to the single global minimum
			// makes every overloaded peer dogpile the same target. TopK
			// over the peer's View keeps only the 3 best candidates while
			// scanning the snapshot once, instead of copying and sorting
			// the whole window; negating the load turns "lightest" into
			// the maximization TopK performs.
			lightest := p.View().TopK(3, func(r peerwindow.Ref) (float64, bool) {
				l, ok := parseLoad([]byte(r.Info()))
				return -float64(l), ok
			})
			type cand struct {
				id   string
				load int
			}
			var cands []cand
			for _, q := range lightest {
				if l, ok := parseLoad(q.Info); ok {
					cands = append(cands, cand{q.ID, l})
				}
			}
			if len(cands) == 0 {
				continue
			}
			pick := cands[(round+ni)%len(cands)]
			// The window's view may lag; settle the transfer against the
			// target's live load (a real system would negotiate this in
			// the transfer message).
			target := ""
			for _, other := range names {
				if q, ok := ov.Peer(other); ok && q.ID() == pick.id {
					target = other
				}
			}
			if target == "" {
				continue
			}
			transfer := (myLoad - loads[target]) / 3
			if transfer < 5 {
				continue
			}
			loads[name] -= transfer
			loads[target] += transfer
			p.SetInfo([]byte(fmt.Sprintf("load=%d", loads[name])))
			if q, ok := ov.Peer(target); ok {
				q.SetInfo([]byte(fmt.Sprintf("load=%d", loads[target])))
			}
		}
		// Let the info-change multicasts propagate before the next round.
		ov.Settle(90 * time.Second)
		min, max = spread()
		fmt.Printf("after round %d: spread [%d, %d]\n", round, min, max)
	}

	// Report the final distribution.
	sorted := append([]string(nil), names...)
	sort.Slice(sorted, func(i, j int) bool { return loads[sorted[i]] > loads[sorted[j]] })
	fmt.Println("final loads:")
	for _, name := range sorted {
		fmt.Printf("  %-3s %3d %s\n", name, loads[name], strings.Repeat("#", loads[name]/2))
	}
	if _, max := spread(); max > 60 {
		fmt.Println("warning: balancing did not converge")
	}
}
