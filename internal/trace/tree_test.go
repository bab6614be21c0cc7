package trace

import (
	"math"
	"testing"

	"peerwindow/internal/des"
	"peerwindow/internal/nodeid"
	"peerwindow/internal/wire"
)

// treeSpans hand-builds the span stream of one small multicast:
//
//	1 ── 2 ── 4
//	└─── 3        (3 also hears a duplicate copy via 2)
func treeSpans(tid wire.TraceID) []Span {
	subj := nodeid.HashString("subject")
	ev := wire.EventInfoChange
	at := func(s int) des.Time { return des.Time(s) * des.Second }
	return []Span{
		{At: at(0), Node: 1, Trace: tid, Kind: SpanOrigin, EventKind: ev, Subject: subj, EventSeq: 1},
		{At: at(0), Node: 1, Trace: tid, Kind: SpanForward, Child: 2, Step: 1, EventKind: ev, Subject: subj, EventSeq: 1},
		{At: at(0), Node: 1, Trace: tid, Kind: SpanForward, Child: 3, Step: 2, EventKind: ev, Subject: subj, EventSeq: 1},
		{At: at(1), Node: 2, Trace: tid, Kind: SpanReceive, Parent: 1, Step: 1, EventKind: ev, Subject: subj, EventSeq: 1},
		{At: at(1), Node: 2, Trace: tid, Kind: SpanDeliver, Parent: 1, Step: 1, EventKind: ev, Subject: subj, EventSeq: 1},
		{At: at(1), Node: 3, Trace: tid, Kind: SpanReceive, Parent: 1, Step: 2, EventKind: ev, Subject: subj, EventSeq: 1},
		{At: at(1), Node: 3, Trace: tid, Kind: SpanDeliver, Parent: 1, Step: 2, EventKind: ev, Subject: subj, EventSeq: 1},
		{At: at(1), Node: 2, Trace: tid, Kind: SpanForward, Child: 4, Step: 2, EventKind: ev, Subject: subj, EventSeq: 1},
		{At: at(2), Node: 4, Trace: tid, Kind: SpanReceive, Parent: 2, Step: 2, EventKind: ev, Subject: subj, EventSeq: 1},
		{At: at(2), Node: 4, Trace: tid, Kind: SpanDeliver, Parent: 2, Step: 2, EventKind: ev, Subject: subj, EventSeq: 1},
		{At: at(2), Node: 3, Trace: tid, Kind: SpanReceive, Parent: 2, Step: 2, EventKind: ev, Subject: subj, EventSeq: 1},
		{At: at(2), Node: 3, Trace: tid, Kind: SpanDuplicate, Parent: 2, Step: 2, EventKind: ev, Subject: subj, EventSeq: 1},
	}
}

func TestBuildTreesReconstruction(t *testing.T) {
	tid := testTrace(1)
	trees := BuildTrees(treeSpans(tid))
	if len(trees) != 1 {
		t.Fatalf("got %d trees want 1", len(trees))
	}
	tr := trees[0]
	if tr.Trace != tid || tr.Origin != 1 || tr.EventKind != wire.EventInfoChange {
		t.Fatalf("tree identity: %+v", tr)
	}
	if len(tr.Delivered) != 4 {
		t.Fatalf("delivered %d nodes want 4", len(tr.Delivered))
	}
	wantDepth := map[uint64]int{1: 0, 2: 1, 3: 1, 4: 2}
	for node, want := range wantDepth {
		if got := tr.Delivered[node].Depth; got != want {
			t.Errorf("node %d depth = %d want %d", node, got, want)
		}
	}
	if tr.Depth() != 2 {
		t.Errorf("Depth() = %d want 2", tr.Depth())
	}
	if tr.RootOutDegree() != 2 {
		t.Errorf("root out-degree = %d want 2", tr.RootOutDegree())
	}
	if tr.OutDeg[2] != 1 || tr.OutDeg[3] != 0 || tr.OutDeg[4] != 0 {
		t.Errorf("out-degrees = %v want 1:2 2:1", tr.OutDeg)
	}
	if tr.Receives != 4 || tr.Duplicates != 1 {
		t.Errorf("receives/duplicates = %d/%d want 4/1", tr.Receives, tr.Duplicates)
	}
	if got := tr.Redundancy(); got != 1.0 {
		t.Errorf("redundancy = %v want 1.0 (4 receives / 4 delivered)", got)
	}
	if tr.Start != 0 || tr.End != 2*des.Second {
		t.Errorf("window [%v, %v]", tr.Start, tr.End)
	}
}

func TestTreeCoverage(t *testing.T) {
	tr := BuildTrees(treeSpans(testTrace(1)))[0]
	missing, extra := tr.Coverage([]uint64{1, 2, 3, 4})
	if len(missing) != 0 || len(extra) != 0 {
		t.Fatalf("exact coverage reported missing=%v extra=%v", missing, extra)
	}
	missing, extra = tr.Coverage([]uint64{1, 2, 5})
	if len(missing) != 1 || missing[0] != 5 {
		t.Fatalf("missing = %v want [5]", missing)
	}
	if len(extra) != 2 || extra[0] != 3 || extra[1] != 4 {
		t.Fatalf("extra = %v want [3 4]", extra)
	}
}

func TestBuildTreesBrokenChainAndZeroTrace(t *testing.T) {
	tid := testTrace(2)
	subj := nodeid.HashString("s")
	spans := []Span{
		{At: 0, Node: 1, Trace: tid, Kind: SpanOrigin, EventKind: wire.EventJoin, Subject: subj},
		// Node 9's parent 8 never delivered: chain is broken.
		{At: 1, Node: 9, Trace: tid, Kind: SpanDeliver, Parent: 8, Step: 3, EventKind: wire.EventJoin, Subject: subj},
		// Zero-trace spans are invisible to reconstruction.
		{At: 2, Node: 5, Kind: SpanDeliver, Parent: 1, EventKind: wire.EventJoin, Subject: subj},
		// So are moments, traced or not: they neither group nor extend.
		{At: 3, Node: 7, Trace: testTrace(9), Kind: SpanAckRetry, Child: 8, EventKind: wire.EventJoin, Subject: subj},
		{At: 4, Node: 1, Trace: tid, Kind: SpanReportEscalate, EventKind: wire.EventJoin, Subject: subj},
		{At: 5, Node: 1, Kind: SpanProbeRound, Child: 9},
	}
	trees := BuildTrees(spans)
	if len(trees) != 1 {
		t.Fatalf("got %d trees want 1 (zero-trace spans and moments must not group)", len(trees))
	}
	if trees[0].End != 1 {
		t.Fatalf("tree ends at %v, want 1: a moment extended it", trees[0].End)
	}
	tr := trees[0]
	if got := tr.Delivered[9].Depth; got != -1 {
		t.Fatalf("orphaned delivery depth = %d want -1", got)
	}
	if got := tr.Delivered[1].Depth; got != 0 {
		t.Fatalf("origin depth = %d want 0", got)
	}
}

func TestBuildTreesGroupsAndOrders(t *testing.T) {
	a := treeSpans(testTrace(3)) // starts at t=0
	b := treeSpans(testTrace(4))
	for i := range b {
		b[i].At += 10 * des.Second // later tree
	}
	// Interleave: later tree's spans first in the stream.
	trees := BuildTrees(append(b, a...))
	if len(trees) != 2 {
		t.Fatalf("got %d trees want 2", len(trees))
	}
	if trees[0].Trace != testTrace(3) || trees[1].Trace != testTrace(4) {
		t.Fatal("trees not in Start order")
	}
}

func TestAggregateStats(t *testing.T) {
	trees := BuildTrees(append(treeSpans(testTrace(5)), treeSpans(testTrace(6))...))
	st := Aggregate(trees)
	if st.Trees != 2 {
		t.Fatalf("trees = %d want 2", st.Trees)
	}
	if st.MeanDepth != 2 || st.MaxDepth != 2 {
		t.Errorf("depth stats %+v", st)
	}
	if st.MeanRootOut != 2 || st.MaxRootOut != 2 {
		t.Errorf("root-out stats %+v", st)
	}
	if st.MeanDelivered != 4 {
		t.Errorf("mean delivered = %v want 4", st.MeanDelivered)
	}
	if got, want := st.Log2N(), math.Log2(4); got != want {
		t.Errorf("Log2N = %v want %v", got, want)
	}
	if st.MeanRedundancy != 1.0 {
		t.Errorf("mean redundancy = %v want 1", st.MeanRedundancy)
	}
	empty := Aggregate(nil)
	if empty.Trees != 0 || empty.Log2N() != 0 {
		t.Errorf("empty aggregate = %+v", empty)
	}
}
