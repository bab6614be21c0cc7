//go:build pwinvariants

package query

import (
	"fmt"
	"testing"

	"peerwindow/internal/core"
	"peerwindow/internal/invariant"
	"peerwindow/internal/xrand"
)

// TestPublishedViewsNeverMutate arms the store's pwinvariants hook: at
// every publish the store re-digests the view it published previously
// and panics if the digest moved. Driving a long random mutation
// sequence through that hook proves the copy-on-write discipline — no
// insert, split, merge or removal path writes into a published bucket.
//
// The same hook also requires every published field index to equal a
// fresh build of its bucket; CI runs the whole package with it armed:
//
//	go test -tags pwinvariants ./internal/query
func TestPublishedViewsNeverMutate(t *testing.T) {
	if !invariant.Enabled {
		t.Fatal("built without the pwinvariants tag")
	}
	s := NewStore(nil)
	rng := xrand.New(1234)
	var present []string
	for i := 0; i < 5000; i++ {
		switch {
		case len(present) > 0 && rng.Intn(3) == 0:
			j := rng.Intn(len(present))
			s.PeerRemoved(ptr(present[j], 0, ""), core.RemoveStale)
			present = append(present[:j], present[j+1:]...)
		case len(present) > 0 && rng.Intn(4) == 0:
			j := rng.Intn(len(present))
			up := ptr(present[j], rng.Intn(6), fmt.Sprintf("rev=%d", i))
			s.PeerUpdated(ptr(present[j], 0, ""), up)
		default:
			label := fmt.Sprintf("inv-%d", i)
			s.PeerAdded(ptr(label, rng.Intn(6), fmt.Sprintf("n=%d", i)))
			present = append(present, label)
		}
	}
	if e := s.View().Epoch(); e < 5000 {
		t.Fatalf("only %d epochs published", e)
	}
	t.Logf("validated digest stability across %d publications", s.View().Epoch())
}
