package query

// The end-to-end equivalence and concurrency tests for the query plane.
// They live here rather than in internal/sim because they spin up real
// goroutines (concurrent readers and subscribers), which the sim package
// forbids to stay deterministic; importing sim from a query test file is
// cycle-free because sim never imports query.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"peerwindow/internal/core"
	"peerwindow/internal/des"
	"peerwindow/internal/sim"
	"peerwindow/internal/wire"
	"peerwindow/internal/workload"
	"peerwindow/internal/xrand"
)

func churnWorkload(mean des.Time) workload.Config {
	wl := workload.DefaultConfig()
	wl.MeanLifetime = mean
	return wl
}

// tracked pairs a simulated node with the store fed by its delta stream.
type tracked struct {
	sn    *sim.SimNode
	store *Store
}

// verifyAgainstNode checks the store's current view against the node's
// authoritative peer list, plus a spot-check that every query family
// agrees with a naive scan of that list.
func verifyAgainstNode(t *testing.T, tr tracked) {
	t.Helper()
	ps := tr.sn.Node.Peers().Pointers()
	if err := tr.store.CheckAgainst(ps); err != nil {
		t.Fatalf("node %v: %v", tr.sn.Addr, err)
	}
	v := tr.store.View()

	// Strongest(5) vs stable sort by level.
	ref := append([]wire.Pointer(nil), ps...)
	for i := 1; i < len(ref); i++ { // insertion sort = stable, tiny k
		for j := i; j > 0 && ref[j].Level < ref[j-1].Level; j-- {
			ref[j], ref[j-1] = ref[j-1], ref[j]
		}
	}
	k := 5
	if k > len(ref) {
		k = len(ref)
	}
	got := v.Strongest(5)
	if len(got) != k {
		t.Fatalf("node %v: Strongest(5) = %d entries, want %d", tr.sn.Addr, len(got), k)
	}
	for i := 0; i < k; i++ {
		if got[i].ID != ref[i].ID {
			t.Fatalf("node %v: Strongest(5)[%d] = %v, scan gives %v",
				tr.sn.Addr, i, got[i].ID, ref[i].ID)
		}
	}

	// InfoContains on a substring present in sim-attached infos (and one
	// that is not) vs naive scan.
	for _, sub := range []string{"b", "nosuchinfo"} {
		want := 0
		for _, p := range ps {
			if strings.Contains(string(p.Info), sub) {
				want++
			}
		}
		if n := len(v.InfoContains(sub)); n != want {
			t.Fatalf("node %v: InfoContains(%q) = %d, scan = %d", tr.sn.Addr, sub, n, want)
		}
	}

	// Level histogram vs scan.
	minL := -1
	for _, p := range ps {
		if minL < 0 || int(p.Level) < minL {
			minL = int(p.Level)
		}
	}
	if v.MinLevel() != minL {
		t.Fatalf("node %v: MinLevel = %d, scan = %d", tr.sn.Addr, v.MinLevel(), minL)
	}

	// The node counts each insertion and eviction where it tells the sink,
	// so its counters and the store's delta counters must agree.
	node, store := tr.sn.Node.Metrics().Snapshot().Counters, tr.store.MetricsSnapshot().Counters
	var removed uint64
	for name, c := range node {
		if strings.HasPrefix(name, core.MetricPeersRemovedPrefix) {
			removed += c
		}
	}
	if node[core.MetricPeersAdded] != store[MetricQueryDeltasAdd] || removed != store[MetricQueryDeltasRemove] {
		t.Fatalf("node %v: %s = %d and %s* = %d, store saw %d adds and %d removes", tr.sn.Addr,
			core.MetricPeersAdded, node[core.MetricPeersAdded], core.MetricPeersRemovedPrefix, removed,
			store[MetricQueryDeltasAdd], store[MetricQueryDeltasRemove])
	}
}

// TestStoreTracksWindowUnderChurn attaches stores to live nodes of a
// seeded cluster, runs stationary churn with crashes and leaves, and at
// every checkpoint requires the indexed views to be bit-identical to the
// nodes' peer lists, and each node's peers.added and peers.removed.*
// counters to equal its store's add and remove delta counts. This is the
// acceptance property from the redesign: the query plane may never drift
// from the window, no matter which of the protocol's mutation paths
// fired.
func TestStoreTracksWindowUnderChurn(t *testing.T) {
	cfg := sim.ClusterConfig{Core: core.DefaultConfig(), Seed: 77}
	c := sim.NewCluster(cfg)
	wl := churnWorkload(12 * des.Minute)
	const target = 96
	c.WarmStart(target, wl, 2)

	// Track every warm-started node; churn will kill many of them, so
	// checkpoints verify whichever are still alive.
	stores := make(map[*sim.SimNode]*Store)
	for _, sn := range c.Alive() {
		st := NewStore(nil)
		sn.Node.SetDeltas(st)
		stores[sn] = st
		// SetDeltas replays the warm-started window; it must already match.
		if err := st.CheckAgainst(sn.Node.Peers().Pointers()); err != nil {
			t.Fatalf("replay after SetDeltas: %v", err)
		}
	}

	ch := sim.NewChurn(c, sim.ChurnConfig{
		Workload:         wl,
		TargetPopulation: target,
		CrashFraction:    0.5,
	})
	ch.Start()

	checked := 0
	for chunk := 0; chunk < 8; chunk++ {
		c.Run(3 * des.Minute)
		alive := make(map[*sim.SimNode]bool)
		for _, sn := range c.Alive() {
			alive[sn] = true
		}
		for sn, st := range stores {
			if !alive[sn] {
				delete(stores, sn) // departed: its window is no longer maintained
				continue
			}
			verifyAgainstNode(t, tracked{sn, st})
			checked++
		}
	}
	if checked < 50 {
		t.Fatalf("only %d checkpoint verifications ran — churn wiped the tracked set", checked)
	}
	if ch.Crashes == 0 || ch.Leaves == 0 || ch.JoinsOK == 0 {
		t.Fatalf("churn did not exercise all paths: %+v", ch)
	}

	// The surviving stores must have seen removals for all three delta
	// kinds in aggregate; otherwise the sink hooks are partially dead.
	var adds, updates, removes uint64
	for _, st := range stores {
		snap := st.MetricsSnapshot()
		adds += snap.Counters[MetricQueryDeltasAdd]
		updates += snap.Counters[MetricQueryDeltasUpdate]
		removes += snap.Counters[MetricQueryDeltasRemove]
	}
	if adds == 0 || removes == 0 {
		t.Fatalf("delta counters dead: adds=%d updates=%d removes=%d", adds, updates, removes)
	}
	t.Logf("verified %d checkpoints; deltas add=%d update=%d remove=%d; churn %+v",
		checked, adds, updates, removes, *ch)
}

// TestConcurrentReadersAndSubscribersUnderChurn is the -race soak: the
// simulation (single-threaded, playing the node executor) feeds a store
// while reader goroutines hammer every query family on whatever view is
// current — publishing field indexes the writer then hands on to the
// clones of level-only updates — and a subscriber goroutine replays the
// delta stream. At the end the replayed state must equal the final view
// with zero drops, proving the lock-free publication protocol delivers a
// consistent stream without ever blocking the writer.
func TestConcurrentReadersAndSubscribersUnderChurn(t *testing.T) {
	cfg := sim.ClusterConfig{Core: core.DefaultConfig(), Seed: 41}
	c := sim.NewCluster(cfg)
	wl := churnWorkload(15 * des.Minute)
	const target = 64
	nodes := c.WarmStart(target, wl, 2)

	// One store on a warm-started node; if churn kills it the store just
	// stops changing, which the test tolerates.
	sn := nodes[0]
	store := NewStore(nil)
	sn.Node.SetDeltas(store)

	sub := store.Subscribe(1<<16, nil)
	defer sub.Close()
	replay := &shadow{}
	sub.Baseline().Each(func(e Entry) bool { replay.upsert(e.Pointer()); return true })

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Readers: continuously exercise the wait-free read path.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var ops uint64
			for {
				select {
				case <-stop:
					if ops == 0 {
						t.Errorf("reader %d never ran", r)
					}
					return
				default:
				}
				v := store.View()
				n := v.Len()
				_ = v.Strongest(4)
				_ = v.InfoContains("b")
				_ = v.WithField("soak=b")
				_ = v.MinLevel()
				_ = v.Sample(3, uint64(r))
				if n2 := v.Len(); n2 != n {
					t.Errorf("reader %d: view length changed under us: %d then %d", r, n, n2)
					return
				}
				ops++
			}
		}(r)
	}

	// Subscriber: drain and fold deltas as they arrive.
	var subWg sync.WaitGroup
	subDone := make(chan struct{})
	subWg.Add(1)
	go func() {
		defer subWg.Done()
		baseEpoch := sub.Baseline().Epoch()
		for {
			select {
			case d := <-sub.C():
				if d.Epoch > baseEpoch {
					applyDelta(replay, d)
				}
			case <-subDone:
				// Drain what is buffered, then stop.
				for {
					select {
					case d := <-sub.C():
						if d.Epoch > baseEpoch {
							applyDelta(replay, d)
						}
					default:
						return
					}
				}
			}
		}
	}()

	ch := sim.NewChurn(c, sim.ChurnConfig{
		Workload:         wl,
		TargetPopulation: target,
		CrashFraction:    0.4,
	})
	ch.Start()
	// Interleave simulated protocol chunks with dense synthetic delta
	// bursts. Both run on this goroutine — the store's single writer —
	// so the contract holds; the bursts guarantee the readers and the
	// subscriber race against thousands of publications, not just the
	// handful of window changes the sim produces for one node.
	rng := xrand.New(7)
	var synth []wire.Pointer
	for chunk := 0; chunk < 24; chunk++ {
		c.Run(90 * des.Second)
		for i := 0; i < 200; i++ {
			switch {
			case len(synth) > 8 && rng.Intn(3) == 0:
				j := rng.Intn(len(synth))
				store.PeerRemoved(synth[j], core.RemoveStale)
				synth = append(synth[:j], synth[j+1:]...)
			case len(synth) > 0 && rng.Intn(3) == 0:
				j := rng.Intn(len(synth))
				up := synth[j]
				up.Level = uint8(rng.Intn(6))
				// Half the updates change only the level: their clones
				// take over the field index the readers published on the
				// predecessor.
				if rng.Intn(2) == 0 {
					up.Info = []byte(fmt.Sprintf("soak=%d.%d", chunk, i))
				}
				store.PeerUpdated(synth[j], up)
				synth[j] = up
			default:
				p := ptr(fmt.Sprintf("soak-%d-%d", chunk, i), rng.Intn(6), "soak=b")
				store.PeerAdded(p)
				synth = append(synth, p)
			}
		}
	}
	close(stop)
	wg.Wait()
	close(subDone)
	subWg.Wait()

	if d := sub.Dropped(); d != 0 {
		t.Fatalf("subscriber dropped %d deltas despite a 64k buffer", d)
	}
	final := store.View()
	if final.Epoch() == sub.Baseline().Epoch() {
		t.Fatal("no mutations reached the store during the soak")
	}
	if final.Len() != len(replay.ps) {
		t.Fatalf("replay has %d entries, final view %d", len(replay.ps), final.Len())
	}
	i := 0
	var mismatch error
	final.Each(func(e Entry) bool {
		if !e.equalPtr(replay.ps[i]) {
			mismatch = fmt.Errorf("entry %d: view %v, replay %v", i, e.ID, replay.ps[i].ID)
			return false
		}
		i++
		return true
	})
	if mismatch != nil {
		t.Fatal(mismatch)
	}
	t.Logf("soak ok: %d epochs, %d deltas delivered, replay matches final view of %d entries",
		final.Epoch(), sub.Delivered(), final.Len())
}
