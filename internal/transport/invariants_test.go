//go:build pwinvariants

package transport

import (
	"testing"
	"time"

	"peerwindow/internal/des"
	"peerwindow/internal/invariant"
)

// TestHostChecksInvariants: under the pwinvariants tag every host's
// executor re-validates its node after each task, so two hosts joining
// and exchanging an announcement run the checks (and any violation
// panics on the executor).
func TestHostChecksInvariants(t *testing.T) {
	before := invariant.Checks()
	n := testNetwork(3, 0)
	defer n.Close()
	a := n.Spawn("a", 1e9)
	a.Bootstrap()
	b := n.Spawn("b", 1e9)
	if err := b.Join(a.Self(), 5*time.Second); err != nil {
		t.Fatalf("join: %v", err)
	}
	b.SetInfo([]byte("checked"))
	settle(n, 10*des.Second)
	if invariant.Checks() == before {
		t.Fatal("no invariant checks ran: the executor hook is dead")
	}
}
