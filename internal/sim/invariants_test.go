//go:build pwinvariants

package sim

import (
	"testing"

	"peerwindow/internal/core"
	"peerwindow/internal/des"
	"peerwindow/internal/invariant"
)

// TestClusterInvariantsUnderChurn is the deep end-to-end validation run:
// a seeded 128-node cluster under stationary churn with the pwinvariants
// build tag armed, so every delivered message and every fired timer
// re-checks the receiving node's full protocol state (peer-list order,
// level histogram, eigenstring prefix property, top-list cap, ring
// successor), and every Run recounts the cluster's chunk pool against
// every node's peer list. Any violation panics with the offending node
// and mutation on the stack. CI runs it with -race on top:
//
//	go test -tags pwinvariants -race ./internal/sim -run TestCluster
func TestClusterInvariantsUnderChurn(t *testing.T) {
	if !invariant.Enabled {
		t.Fatal("built without the pwinvariants tag")
	}
	cfg := ClusterConfig{Core: core.DefaultConfig(), Seed: 77}
	c := NewCluster(cfg)
	wl := shortLifeWorkload(12 * des.Minute)
	const target = 128
	c.WarmStart(target, wl, 2)
	before, poolBefore := invariant.Checks(), invariant.PoolChecks()

	ch := NewChurn(c, ChurnConfig{Workload: wl, TargetPopulation: target, CrashFraction: 0.5})
	ch.Start()
	c.Run(20 * des.Minute)

	checks := invariant.Checks() - before
	if checks == 0 {
		t.Fatal("no invariant checks ran: the sim hooks are dead")
	}
	if invariant.PoolChecks() == poolBefore {
		t.Fatal("no chunk-pool check ran: the Run hook is dead")
	}
	if ch.JoinsOK == 0 || ch.Crashes == 0 || ch.Leaves == 0 {
		t.Fatalf("churn did not exercise all paths: %+v", ch)
	}
	t.Logf("validated %d invariant checks across joins=%d crashes=%d leaves=%d",
		checks, ch.JoinsOK, ch.Crashes, ch.Leaves)
}
