// GUESS-style non-forwarding search over PeerWindow (§1, §3 and the
// Yang/Vinograd/Garcia-Molina reference): instead of flooding a query
// through an overlay, a node first collects a large set of pointers —
// each annotated with the number of files the remote peer shares — and
// then probes the most promising candidates directly, highest shared
// count first.
//
// The demo compares the local hit rate of a GUESS search using the full
// PeerWindow against one restricted to a small routing-table-sized
// sample, which is the comparison the paper's introduction draws.
//
// Run with:
//
//	go run ./examples/guess
package main

import (
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	"peerwindow"

	"peerwindow/internal/xrand"
)

// library maps peer name -> the file IDs it shares (small ints).
type library map[string][]int

func sharesFile(files []int, want int) bool {
	for _, f := range files {
		if f == want {
			return true
		}
	}
	return false
}

func main() {
	opts := peerwindow.Defaults()
	opts.Budget = 1e6
	opts.Seed = 11
	ov, err := peerwindow.NewOverlay(opts)
	if err != nil {
		log.Fatal(err)
	}
	defer ov.Close()

	rng := xrand.New(99)
	const peers = 14
	const catalogue = 60 // distinct file IDs in the universe

	libs := make(library, peers)
	idToName := make(map[string]string, peers)
	for i := 0; i < peers; i++ {
		name := fmt.Sprintf("peer-%02d", i)
		p, err := ov.Spawn(name)
		if err != nil {
			log.Fatalf("spawn %s: %v", name, err)
		}
		// Popularity-skewed libraries: a few peers share a lot.
		n := 1 + rng.Intn(4)
		if i%5 == 0 {
			n = 10 + rng.Intn(10)
		}
		files := make([]int, 0, n)
		for len(files) < n {
			f := rng.Intn(catalogue)
			if !sharesFile(files, f) {
				files = append(files, f)
			}
		}
		libs[name] = files
		// §3: "GUESS protocol can attach the number of shared files to
		// the pointers."
		p.SetInfo([]byte(fmt.Sprintf("files=%d", n)))
		idToName[p.ID()] = name
		ov.Settle(20 * time.Second)
	}
	ov.Settle(2 * time.Minute)

	searcher, _ := ov.Peer("peer-01")
	view := searcher.View()
	fmt.Printf("searcher window: %d pointers\n", view.Len())

	// Order candidates by announced shared-file count, richest first —
	// the GUESS probe order. TopK scans the snapshot once and matches a
	// stable descending sort (ties keep window order).
	ordered := view.TopK(view.Len(), func(r peerwindow.Ref) (float64, bool) {
		return float64(filesOf([]byte(r.Info()))), true
	})

	probeBudget := 5
	queries := 40
	hitsFull, hitsSmall := 0, 0
	small := view.Sample(4, 3) // a routing-table-sized pointer set
	for q := 0; q < queries; q++ {
		want := rng.Intn(catalogue)
		// Full PeerWindow, best-first, limited probes.
		for i, cand := range ordered {
			if i >= probeBudget {
				break
			}
			if sharesFile(libs[idToName[cand.ID]], want) {
				hitsFull++
				break
			}
		}
		// Small random pointer set, same probe budget.
		for i, cand := range small {
			if i >= probeBudget {
				break
			}
			if sharesFile(libs[idToName[cand.ID]], want) {
				hitsSmall++
				break
			}
		}
	}
	fmt.Printf("non-forwarding search, %d queries, %d probes each:\n", queries, probeBudget)
	fmt.Printf("  full PeerWindow (%2d candidates, best-first): %2d/%d hits\n",
		len(ordered), hitsFull, queries)
	fmt.Printf("  small pointer set (%d random candidates):     %2d/%d hits\n",
		len(small), hitsSmall, queries)
	if hitsFull < hitsSmall {
		fmt.Println("unexpected: the large window should not lose")
	}

	// Show what the attached info looks like on the wire.
	fmt.Println("\nrichest candidates by announced share count:")
	for i, c := range ordered[:3] {
		fmt.Printf("  #%d %s… %s (actually %d files)\n",
			i+1, c.ID[:8], c.Info, len(libs[idToName[c.ID]]))
	}
}

// filesOf parses "files=N" info.
func filesOf(info []byte) int {
	s := string(info)
	i := strings.Index(s, "files=")
	if i < 0 {
		return 0
	}
	v, _ := strconv.Atoi(s[i+6:])
	return v
}
