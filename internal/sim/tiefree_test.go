package sim

import (
	"reflect"
	"testing"

	"peerwindow/internal/core"
	"peerwindow/internal/des"
	"peerwindow/internal/topology"
	"peerwindow/internal/wire"
	"peerwindow/internal/workload"
	"peerwindow/internal/xrand"
)

// TestClusterTieFreeScheduleUnchanged pins the traffic of a seeded churn
// run on a jittered transit-stub topology, where almost no two events of
// one node share an instant. There a node's timeouts and forward hops
// fire in the same order however they are scheduled, so the message, bit
// and protocol counts below must not move under a change that keeps every
// deadline exact. (Under a constant link latency many events tie, and a
// change to how timers are queued may legitimately reorder those ties.)
func TestClusterTieFreeScheduleUnchanged(t *testing.T) {
	p := topology.DefaultParams()
	p.LatencyJitter = 0.3
	c := NewCluster(ClusterConfig{
		Core: DefaultFullCore(),
		Net:  topology.Generate(p, xrand.New(1)),
		Seed: 1,
	})
	wl := workload.DefaultConfig()
	const target = 300
	c.WarmStart(target, wl, 2)
	ch := NewChurn(c, ChurnConfig{Workload: wl, TargetPopulation: target, CrashFraction: 0.5})
	ch.Start()
	c.Run(15 * des.Minute)
	ch.Stop()

	counters := map[string]uint64{}
	for _, sn := range c.Nodes() {
		s := sn.Node.MetricsSnapshot()
		for _, name := range []string{
			core.MetricMulticastOriginated, core.MetricMulticastDelivered,
			core.MetricMulticastDuplicates, core.MetricMulticastForwards,
			core.MetricMulticastRedirects, core.MetricAckRetries,
		} {
			counters[name] += s.Counters[name]
		}
	}
	t.Logf("msgs=%d bits=%d byType=%v counters=%v joins=%d crashes=%d leaves=%d",
		c.MessagesSent, c.BitsSent, c.SentByType, counters, ch.JoinsOK, ch.Crashes, ch.Leaves)

	const wantMsgs, wantBits = 71284, 26070232
	if c.MessagesSent != wantMsgs || c.BitsSent != wantBits {
		t.Errorf("run carried msgs=%d bits=%d, want msgs=%d bits=%d", c.MessagesSent, c.BitsSent, wantMsgs, wantBits)
	}
	wantByType := map[wire.MsgType]uint64{
		wire.MsgEvent: 26641, wire.MsgAck: 26351,
		wire.MsgHeartbeat: 9198, wire.MsgHeartbeatAck: 8677,
		wire.MsgReport: 51, wire.MsgReportAck: 48,
		wire.MsgJoinQuery: 32, wire.MsgJoinInfo: 32,
		wire.MsgPeerListReq: 63, wire.MsgPeerListResp: 63,
		wire.MsgTopListReq: 64, wire.MsgTopListResp: 64,
	}
	if !reflect.DeepEqual(c.SentByType, wantByType) {
		t.Errorf("messages by type %v, want %v", c.SentByType, wantByType)
	}
	wantCounters := map[string]uint64{
		core.MetricMulticastOriginated: 94, core.MetricMulticastDelivered: 26314,
		core.MetricMulticastDuplicates: 37, core.MetricMulticastForwards: 26448,
		core.MetricMulticastRedirects: 96, core.MetricAckRetries: 312,
	}
	if !reflect.DeepEqual(counters, wantCounters) {
		t.Errorf("protocol counters %v, want %v", counters, wantCounters)
	}
}
