package udptransport

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"peerwindow/internal/core"
	"peerwindow/internal/des"
	"peerwindow/internal/metrics"
	"peerwindow/internal/nodeid"
	"peerwindow/internal/query"
	"peerwindow/internal/sim"
	"peerwindow/internal/telemetry"
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
// those hosts' totals with its own instruments; the in-process overlay's
// Metrics merges its nodes' and stores' with the simulator's net.* rows.
// Snapshot.Merge adds values under equal names, so two registries minting
// one name would silently sum unrelated quantities (or print one name
// under two kinds). The UDP link and the simulator are alternatives, so
// each is checked against the others, not against each other.
func TestMergedRegistriesMintDisjointNames(t *testing.T) {
	node := core.NewNode(fastConfig(), idleEnv{}, core.Observer{},
		wire.Pointer{ID: nodeid.Hash([]byte("node")), Addr: 1})
	cluster := sim.NewCluster(sim.ClusterConfig{Core: fastConfig()})
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
		{"simulator network", cluster.NetMetrics()},
		{"UDP link", udp.Metrics()},
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

// TestInstrumentFamilies pins what every owner of instruments exposes:
// each instrument's kind and name, and a histogram's bounds. Names and
// kinds are what /metrics prints and what telemetry frames carry, so how
// an owner holds its instruments may change but this list may not.
func TestInstrumentFamilies(t *testing.T) {
	node := core.NewNode(fastConfig(), idleEnv{}, core.Observer{},
		wire.Pointer{ID: nodeid.Hash([]byte("node")), Addr: 1})
	udp := newLink(nil, nil)
	defer udp.cancel()
	collector := telemetry.NewCollector(telemetry.CollectorConfig{Clock: func() des.Time { return 0 }})
	msgTypes := []string{"ack", "event", "heartbeat", "heartbeat-ack", "join-info", "join-query",
		"peerlist-req", "peerlist-resp", "report", "report-ack", "toplist-req", "toplist-resp"}
	perType := func(kind, prefix string) []string {
		var out []string
		for _, m := range msgTypes {
			out = append(out, kind+" "+prefix+m)
		}
		return out
	}
	cat := func(parts ...[]string) []string {
		var out []string
		for _, p := range parts {
			out = append(out, p...)
		}
		sort.Strings(out)
		return out
	}
	for _, c := range []struct {
		owner string
		snap  metrics.Snapshot
		want  []string
	}{
		{"core node", node.MetricsSnapshot(), []string{
			"counter ack.failures",
			"counter ack.retries",
			"counter failure.false_alarms",
			"counter failure.verified",
			"counter level.shifts_down",
			"counter level.shifts_up",
			"counter multicast.delivered",
			"counter multicast.duplicates",
			"counter multicast.forwards",
			"counter multicast.originated",
			"counter multicast.redirects",
			"counter peers.added",
			"counter peers.removed.expired",
			"counter peers.removed.leave",
			"counter peers.removed.shift",
			"counter peers.removed.stale",
			"counter probe.failures",
			"counter probe.retries",
			"counter probe.rounds",
			"counter reconcile.dropped_pointers",
			"counter reconcile.runs",
			"counter refresh.expired_pointers",
			"counter refresh.self_multicasts",
			"counter report.escalations",
			"counter report.sent",
			"counter split.captures",
			"counter toplist.cross_part_refreshes",
			"gauge peer.input_rate_bps",
			"gauge peer.level",
			"gauge peer.output_rate_bps",
			"gauge peer.window_size",
			"histogram multicast.step_depth [1 2 4 8 12 16 24 32 64 128]",
			"histogram probe.detect_latency_seconds [0.1 0.25 0.5 1 2.5 5 10 15 30 60 120 300]",
		}},
		{"query store", query.NewStore(nil).MetricsSnapshot(), []string{
			"counter query.deltas.add",
			"counter query.deltas.remove",
			"counter query.deltas.update",
			"counter query.subs.delivered",
			"counter query.subs.dropped",
			"gauge query.buckets",
			"gauge query.entries",
			"gauge query.epoch",
			"gauge query.subs.active",
		}},
		{"UDP link", udp.Metrics(), cat(perType("counter", "net.recv."), perType("counter", "net.send."), []string{
			"counter net.bulk_rejected",
			"counter net.garbage_datagrams",
			"counter net.recv_bytes",
			"counter net.send_bytes",
			"counter net.send_errors",
			"gauge net.bulk_sends",
		})},
		{"simulator network", sim.NewCluster(sim.ClusterConfig{Core: fastConfig()}).NetMetrics(),
			cat(perType("counter", "net.drop."), perType("counter", "net.send."), perType("counter", "net.send_bits."), []string{
				"counter net.send.unknown_dest",
				"gauge net.hosts",
			})},
		{"collector", collector.SelfMetrics(), []string{
			"counter telemetry.bytes_received",
			"counter telemetry.counter_regressions",
			"counter telemetry.frames_bad",
			"counter telemetry.frames_late",
			"counter telemetry.frames_missing",
			"counter telemetry.frames_received",
			"counter telemetry.spans_received",
			"gauge telemetry.nodes",
		}},
	} {
		var got []string
		for name := range c.snap.Counters {
			got = append(got, "counter "+name)
		}
		for name := range c.snap.Gauges {
			got = append(got, "gauge "+name)
		}
		for name, h := range c.snap.Histograms {
			got = append(got, fmt.Sprintf("histogram %s %v", name, h.Bounds))
		}
		sort.Strings(got)
		if g, w := strings.Join(got, "\n"), strings.Join(c.want, "\n"); g != w {
			t.Errorf("%s exposes\n%s\nwant\n%s", c.owner, g, w)
		}
	}
}
