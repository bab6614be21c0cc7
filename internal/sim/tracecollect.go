package sim

// Span collection and coverage auditing: the cluster-wide counterpart of
// the per-node span buffers. A TraceCollector gathers every node's spans
// into one buffer and, at each origination, snapshots the oracle's
// audience set for the event's subject — the membership truth at the
// instant the tree started growing. Audit then reconstructs every tree
// and compares its delivered set against that snapshot, turning the
// paper's property 3 ("events are multicast exactly around the audience
// set") into a per-event, machine-checkable assertion.

import (
	"peerwindow/internal/nodeid"
	"peerwindow/internal/trace"
	"peerwindow/internal/wire"
)

// TraceCollector is the cluster's span sink plus per-trace expected
// audiences. It embeds the bounded SpanBuffer holding the raw spans.
type TraceCollector struct {
	*trace.SpanBuffer
	c *Cluster
	// expected maps each trace to the audience addresses snapshotted at
	// its origin span.
	expected map[wire.TraceID][]uint64
}

// EnableSpanCollection attaches a collector retaining up to capacity
// spans to the cluster: existing and future nodes stamp trace IDs and
// record spans into it, and loss-injected drops of traced hops are
// recorded by the harness. Call it before the activity to observe;
// capacity must cover that activity or eviction will break tree
// reconstruction.
func (c *Cluster) EnableSpanCollection(capacity int) *TraceCollector {
	tc := &TraceCollector{
		SpanBuffer: trace.NewSpanBuffer(capacity),
		c:          c,
		expected:   make(map[wire.TraceID][]uint64),
	}
	c.cfg.Spans = tc
	for _, sn := range c.nodes {
		sn.Node.SetSpanSink(tc)
	}
	return tc
}

// RecordSpan implements trace.SpanSink: origin spans additionally freeze
// the oracle's audience set for the new tree.
func (tc *TraceCollector) RecordSpan(s trace.Span) {
	if s.Kind == trace.SpanOrigin {
		if _, ok := tc.expected[s.Trace]; !ok {
			tc.expected[s.Trace] = tc.c.audienceAddrs(s.Subject)
		}
	}
	tc.SpanBuffer.RecordSpan(s)
}

// Expected returns the audience snapshot for a trace, if its origin span
// was observed.
func (tc *TraceCollector) Expected(tid wire.TraceID) ([]uint64, bool) {
	a, ok := tc.expected[tid]
	return a, ok
}

// Trees reconstructs every retained tree, oldest-origin first.
func (tc *TraceCollector) Trees() []*trace.Tree {
	return trace.BuildTrees(tc.Snapshot())
}

// Coverage is one tree's audit against its origin-time audience.
type Coverage struct {
	Tree *trace.Tree
	// Expected is the oracle audience snapshot (addresses); HasExpected
	// is false when the origin span was never observed (evicted, or the
	// run started mid-tree).
	Expected    []uint64
	HasExpected bool
	// Missing are audience members never delivered to; Extra are
	// deliveries outside the audience. Exact coverage is both empty.
	Missing, Extra []uint64
}

// Exact reports whether the tree covered its audience exactly.
func (cv Coverage) Exact() bool {
	return cv.HasExpected && len(cv.Missing) == 0 && len(cv.Extra) == 0
}

// Audit reconstructs all retained trees and cross-checks each against
// its frozen oracle audience. Duplicates do not affect coverage; they
// stay visible on the Tree itself.
func (tc *TraceCollector) Audit() []Coverage {
	trees := tc.Trees()
	out := make([]Coverage, 0, len(trees))
	for _, t := range trees {
		cv := Coverage{Tree: t}
		if exp, ok := tc.expected[t.Trace]; ok {
			cv.Expected = exp
			cv.HasExpected = true
			cv.Missing, cv.Extra = t.Coverage(exp)
		}
		out = append(out, cv)
	}
	return out
}

// audienceAddrs computes the oracle audience of subject at this instant:
// sync the truth registry's levels from the live nodes, take the
// oracle's audience set, and translate members to addresses. A joining
// subject is not yet in the truth registry (membership is recorded when
// its join completes) but its own join event delivers to it, so it is
// counted as audience while alive.
func (c *Cluster) audienceAddrs(subject nodeid.ID) []uint64 {
	c.SyncTruth()
	out := make([]uint64, 0, 32)
	subjectIn := false
	for _, p := range c.Truth.Audience(subject) {
		if p.ID == subject {
			subjectIn = true
		}
		out = append(out, uint64(p.Addr))
	}
	if !subjectIn {
		for _, sn := range c.nodes {
			if sn.Alive() && sn.Node.Self().ID == subject {
				out = append(out, uint64(sn.Addr))
				break
			}
		}
	}
	return out
}
