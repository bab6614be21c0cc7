package trace

// Tree reconstruction: group spans by TraceID and rebuild the multicast
// tree each traced event actually grew — who delivered, through which
// parent, at what hop depth — so the paper's structural claims (≈log₂N
// depth, ≈log₂N root out-degree, r = 1 redundancy) become measurable per
// event instead of only in aggregate counters.

import (
	"math"
	"sort"

	"peerwindow/internal/des"
	"peerwindow/internal/nodeid"
	"peerwindow/internal/wire"
)

// Delivery is one node's acceptance of a traced event.
type Delivery struct {
	// At is when the node delivered.
	At des.Time
	// Parent is the node it received the event from (zero for the
	// origin).
	Parent uint64
	// Step is the §4.2 step counter stamped on the delivering message.
	Step int
	// Depth is the hop distance from the origin along recorded parent
	// edges; -1 when the chain is broken (spans evicted or lost).
	Depth int
}

// Tree is one reconstructed multicast tree.
type Tree struct {
	Trace     wire.TraceID
	EventKind wire.EventKind
	Subject   nodeid.ID
	EventSeq  uint64

	// Origin is the originating node's address (zero if the origin span
	// was evicted before collection).
	Origin uint64
	// Start and End bracket the tree's recorded spans in virtual time.
	Start, End des.Time

	// Delivered maps node address → its delivery record. The origin
	// counts as delivered at depth 0.
	Delivered map[uint64]Delivery
	// OutDeg maps node address → MsgEvent forwards it sent for this tree
	// (including ones later redirected).
	OutDeg map[uint64]int

	// Receives counts MsgEvent arrivals (deliver + duplicate verdicts);
	// Duplicates counts the rejected ones; Redirects and Drops tally the
	// failure-handling spans (a drop may be of a report carrying the
	// trace, before the origin).
	Receives   int
	Duplicates int
	Redirects  int
	Drops      int
}

// Depth returns the tree's maximum resolved hop depth.
func (t *Tree) Depth() int {
	max := 0
	for _, d := range t.Delivered {
		if d.Depth > max {
			max = d.Depth
		}
	}
	return max
}

// RootOutDegree returns the origin's forward count.
func (t *Tree) RootOutDegree() int { return t.OutDeg[t.Origin] }

// Redundancy returns received messages per delivery — the paper's r,
// which the tree scheme keeps at 1 (every extra receive is a duplicate).
func (t *Tree) Redundancy() float64 {
	if len(t.Delivered) == 0 {
		return 0
	}
	return float64(t.Receives) / float64(len(t.Delivered))
}

// Coverage compares the delivered set against an expected audience:
// Missing are audience members the tree never reached, Extra are
// deliveries outside the audience. Exact coverage is both empty.
func (t *Tree) Coverage(expected []uint64) (missing, extra []uint64) {
	want := make(map[uint64]bool, len(expected))
	for _, a := range expected {
		want[a] = true
	}
	for a := range t.Delivered {
		if !want[a] {
			extra = append(extra, a)
		}
		delete(want, a)
	}
	for a := range want {
		missing = append(missing, a)
	}
	sort.Slice(missing, func(i, j int) bool { return missing[i] < missing[j] })
	sort.Slice(extra, func(i, j int) bool { return extra[i] < extra[j] })
	return missing, extra
}

// BuildTrees groups spans by TraceID and reconstructs each tree,
// returned in Start order. Spans with a zero TraceID and moments outside
// the tree (kinds after SpanDrop) are ignored.
func BuildTrees(spans []Span) []*Tree {
	byTrace := make(map[wire.TraceID]*Tree)
	order := make([]*Tree, 0, 8)
	for _, s := range spans {
		if s.Trace.IsZero() || s.Kind > SpanDrop {
			continue
		}
		t := byTrace[s.Trace]
		if t == nil {
			t = &Tree{
				Trace:     s.Trace,
				EventKind: s.EventKind,
				Subject:   s.Subject,
				EventSeq:  s.EventSeq,
				Start:     s.At,
				End:       s.At,
				Delivered: make(map[uint64]Delivery),
				OutDeg:    make(map[uint64]int),
			}
			byTrace[s.Trace] = t
			order = append(order, t)
		}
		if s.At < t.Start {
			t.Start = s.At
		}
		if s.At > t.End {
			t.End = s.At
		}
		switch s.Kind {
		case SpanOrigin:
			t.Origin = s.Node
			t.Delivered[s.Node] = Delivery{At: s.At, Step: s.Step}
		case SpanReceive:
			t.Receives++
		case SpanDeliver:
			// Keep the first delivery if a malformed stream repeats one.
			if _, dup := t.Delivered[s.Node]; !dup {
				t.Delivered[s.Node] = Delivery{At: s.At, Parent: s.Parent, Step: s.Step}
			}
		case SpanDuplicate:
			t.Duplicates++
		case SpanForward:
			t.OutDeg[s.Node]++
		case SpanRedirect:
			t.Redirects++
		case SpanDrop:
			t.Drops++
		}
	}
	for _, t := range order {
		t.resolveDepths()
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].Start < order[j].Start })
	return order
}

// resolveDepths walks each delivery's parent chain to the origin,
// memoizing as it goes. Chains that never reach the origin (evicted
// spans, a foreign parent) resolve to -1; a cycle guard bounds the walk.
func (t *Tree) resolveDepths() {
	depth := make(map[uint64]int, len(t.Delivered))
	depth[t.Origin] = 0
	var resolve func(node uint64, hops int) int
	resolve = func(node uint64, hops int) int {
		if d, ok := depth[node]; ok {
			return d
		}
		if hops > len(t.Delivered) {
			return -1 // cycle: malformed stream
		}
		del, ok := t.Delivered[node]
		if !ok || del.Parent == node {
			depth[node] = -1
			return -1
		}
		pd := resolve(del.Parent, hops+1)
		d := -1
		if pd >= 0 {
			d = pd + 1
		}
		depth[node] = d
		return d
	}
	for node := range t.Delivered {
		resolve(node, 0)
	}
	for node, del := range t.Delivered {
		del.Depth = depth[node]
		t.Delivered[node] = del
	}
}

// TreeStats aggregates structural properties across trees — the material
// for the log₂N validation.
type TreeStats struct {
	Trees          int
	MeanDepth      float64
	MaxDepth       int
	MeanRootOut    float64
	MaxRootOut     int
	MeanDelivered  float64
	MeanRedundancy float64
	TotalDrops     int
	TotalRedirects int
}

// Log2N returns log₂ of the mean delivered-set size — the paper's
// yardstick for depth and root out-degree.
func (s TreeStats) Log2N() float64 {
	if s.MeanDelivered <= 1 {
		return 0
	}
	return math.Log2(s.MeanDelivered)
}

// Aggregate computes TreeStats over trees.
func Aggregate(trees []*Tree) TreeStats {
	var s TreeStats
	s.Trees = len(trees)
	if len(trees) == 0 {
		return s
	}
	for _, t := range trees {
		d := t.Depth()
		s.MeanDepth += float64(d)
		if d > s.MaxDepth {
			s.MaxDepth = d
		}
		ro := t.RootOutDegree()
		s.MeanRootOut += float64(ro)
		if ro > s.MaxRootOut {
			s.MaxRootOut = ro
		}
		s.MeanDelivered += float64(len(t.Delivered))
		s.MeanRedundancy += t.Redundancy()
		s.TotalDrops += t.Drops
		s.TotalRedirects += t.Redirects
	}
	n := float64(len(trees))
	s.MeanDepth /= n
	s.MeanRootOut /= n
	s.MeanDelivered /= n
	s.MeanRedundancy /= n
	return s
}
