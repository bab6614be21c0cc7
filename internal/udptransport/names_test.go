package udptransport

import (
	"sort"
	"testing"

	"peerwindow/internal/core"
	"peerwindow/internal/des"
	"peerwindow/internal/metrics"
	"peerwindow/internal/nodeid"
	"peerwindow/internal/query"
	"peerwindow/internal/telemetry"
	"peerwindow/internal/transport"
	"peerwindow/internal/wire"
	"peerwindow/internal/xrand"
)

// idleEnv hosts a node that is built and never started.
type idleEnv struct{}

func (idleEnv) Now() des.Time                        { return 0 }
func (idleEnv) Send(wire.Message)                    {}
func (idleEnv) SetTimer(des.Time, func()) core.Timer { return nil }
func (idleEnv) Rand() *xrand.Source                  { return xrand.New(1) }

// TestMergedRegistriesMintDisjointNames: a host's /metrics merges its
// node's, its store's and its link's registries, and pwcollect's merges
// those hosts' totals with its own instruments. Snapshot.Merge adds
// values under equal names, so two registries minting one name would
// silently sum unrelated quantities (or print one name under two kinds).
// The two links are alternatives — one per host — so each is checked
// against the others, not against each other.
func TestMergedRegistriesMintDisjointNames(t *testing.T) {
	node := core.NewNode(fastConfig(), idleEnv{}, core.Observer{},
		wire.Pointer{ID: nodeid.Hash([]byte("node")), Addr: 1})
	netw := transport.NewNetwork(transport.NetworkConfig{Core: fastConfig()})
	defer netw.Close()
	udp := newLink(nil, nil)
	defer udp.cancel()
	collector := telemetry.NewCollector(telemetry.CollectorConfig{Clock: func() des.Time { return 0 }})

	shared := []struct {
		owner string
		snap  metrics.Snapshot
	}{
		{"core node", node.MetricsSnapshot()},
		{"query store", query.NewStore(nil).MetricsSnapshot()},
		{"collector", collector.SelfMetrics()},
	}
	for _, l := range []struct {
		owner string
		snap  metrics.Snapshot
	}{
		{"Network link", netw.Metrics()},
		{"UDP link", udp.reg.Snapshot()},
	} {
		owners := map[string]string{}
		for _, r := range append(shared, l) {
			names := instrumentNames(r.snap)
			if len(names) == 0 {
				t.Errorf("%s minted nothing", r.owner)
			}
			for _, name := range names {
				if !metrics.ValidName(name) {
					t.Errorf("%s minted %q, which ValidName rejects", r.owner, name)
				}
				if prev, ok := owners[name]; ok {
					t.Errorf("%q is minted by both %s and %s", name, prev, r.owner)
				}
				owners[name] = r.owner
			}
		}
	}
}

// instrumentNames lists every instrument of s, a name once per kind.
func instrumentNames(s metrics.Snapshot) []string {
	var names []string
	for name := range s.Counters {
		names = append(names, name)
	}
	for name := range s.Gauges {
		names = append(names, name)
	}
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
