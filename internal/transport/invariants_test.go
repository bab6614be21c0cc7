//go:build pwinvariants

package transport_test

import (
	"testing"
	"time"

	"peerwindow/internal/invariant"
)

// TestHostChecksInvariants: under the pwinvariants tag every host
// re-validates its node after each message, timer run and API call, so
// two UDP hosts joining and exchanging an announcement run the checks
// (and any violation panics on the goroutine that drove the node).
func TestHostChecksInvariants(t *testing.T) {
	before := invariant.Checks()
	spawn := udpSpawner(t)
	a := spawn("a")
	a.Bootstrap()
	b := spawn("b")
	if err := b.Join(a.Self(), 5*time.Second); err != nil {
		t.Fatalf("join: %v", err)
	}
	b.SetInfo([]byte("checked"))
	id := b.Self().ID
	eventually(t, "a learns b's info", func() bool {
		e, ok := a.Query().View().Get(id)
		return ok && e.Info() == "checked"
	})
	if invariant.Checks() == before {
		t.Fatal("no invariant checks ran: the host's hook is dead")
	}
}
