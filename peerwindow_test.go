package peerwindow

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"peerwindow/internal/trace"
)

// testOptions uses huge budgets so levels stay at 0.
func testOptions(seed uint64) Options {
	o := Defaults()
	o.Budget = 1e9
	o.Seed = seed
	return o
}

func newTestOverlay(t *testing.T, o Options) *Overlay {
	t.Helper()
	ov, err := NewOverlay(o)
	if err != nil {
		t.Fatalf("NewOverlay: %v", err)
	}
	return ov
}

func buildPeers(t *testing.T, ov *Overlay, names ...string) []*Peer {
	t.Helper()
	out := make([]*Peer, 0, len(names))
	for _, name := range names {
		p, err := ov.Spawn(name)
		if err != nil {
			t.Fatalf("spawn %q: %v", name, err)
		}
		out = append(out, p)
		ov.Settle(20 * time.Second)
	}
	return out
}

func TestOverlayWindowsConverge(t *testing.T) {
	ov := newTestOverlay(t, testOptions(1))
	defer ov.Close()
	peers := buildPeers(t, ov, "a", "b", "c", "d", "e", "f")
	ov.Settle(2 * time.Minute)
	for _, p := range peers {
		if got := p.View().Len(); got != len(peers)-1 {
			t.Fatalf("%s window has %d pointers, want %d", p.Name(), got, len(peers)-1)
		}
	}
}

func TestSpawnDuplicateName(t *testing.T) {
	ov := newTestOverlay(t, testOptions(2))
	defer ov.Close()
	if _, err := ov.Spawn("dup"); err != nil {
		t.Fatal(err)
	}
	_, err := ov.Spawn("dup")
	if !errors.Is(err, ErrDuplicateName) {
		t.Fatalf("err = %v want ErrDuplicateName", err)
	}
}

func TestPeerLookupAndList(t *testing.T) {
	ov := newTestOverlay(t, testOptions(3))
	defer ov.Close()
	buildPeers(t, ov, "x", "y")
	if _, ok := ov.Peer("x"); !ok {
		t.Fatal("Peer(x) not found")
	}
	if _, ok := ov.Peer("nope"); ok {
		t.Fatal("Peer(nope) found")
	}
	if got := len(ov.Peers()); got != 2 {
		t.Fatalf("Peers() = %d", got)
	}
	p, _ := ov.Peer("x")
	p.Crash()
	if got := len(ov.Peers()); got != 1 {
		t.Fatalf("Peers() after crash = %d", got)
	}
	if _, ok := ov.Peer("x"); ok {
		t.Fatal("crashed peer still listed")
	}
}

func TestInfoSelection(t *testing.T) {
	ov := newTestOverlay(t, testOptions(4))
	defer ov.Close()
	peers := buildPeers(t, ov, "p1", "p2", "p3", "p4", "p5")
	peers[1].SetInfo([]byte("os=linux;disk=2T"))
	peers[2].SetInfo([]byte("os=plan9;disk=1T"))
	peers[3].SetInfo([]byte("os=linux;disk=500G"))
	ov.Settle(2 * time.Minute)

	v := peers[0].View()
	linux := v.InfoContains("os=linux")
	if len(linux) != 2 {
		t.Fatalf("found %d linux peers, want 2", len(linux))
	}
	plan9 := v.ByInfo(func(b []byte) bool { return strings.Contains(string(b), "plan9") })
	if len(plan9) != 1 {
		t.Fatalf("found %d plan9 peers, want 1", len(plan9))
	}
	if got := v.CountWhere(func(r Ref) bool { return r.Info() == "" }); got != 1 {
		t.Fatalf("peers without info = %d, want 1", got)
	}
}

func TestLeaveRemovesFromWindows(t *testing.T) {
	ov := newTestOverlay(t, testOptions(5))
	defer ov.Close()
	peers := buildPeers(t, ov, "m1", "m2", "m3", "m4")
	leaverID := peers[2].ID()
	peers[2].Leave()
	ov.Settle(2 * time.Minute)
	for _, p := range ov.Peers() {
		if _, ok := p.View().Lookup(leaverID); ok {
			t.Fatalf("%s still lists the departed peer", p.Name())
		}
	}
}

func TestDefaultsAreUsable(t *testing.T) {
	o := Defaults()
	if o.Budget <= 0 || o.TopListSize <= 0 {
		t.Fatal("defaults incomplete")
	}
	// toCore must produce a valid engine configuration.
	if err := o.toCore().Validate(); err != nil {
		t.Fatalf("defaults do not validate: %v", err)
	}
}

func TestMaxInfoLenExported(t *testing.T) {
	if MaxInfoLen != 255 {
		t.Fatalf("MaxInfoLen = %d", MaxInfoLen)
	}
}

func TestOverlayTrafficMetrics(t *testing.T) {
	ov := newTestOverlay(t, testOptions(6))
	defer ov.Close()
	buildPeers(t, ov, "s1", "s2", "s3")
	ov.Settle(time.Minute)
	m := ov.Metrics()
	var sent, sentBits, dropped uint64
	for name, v := range m.Counters {
		switch {
		case strings.HasPrefix(name, "net.send_bits."):
			sentBits += v
		case strings.HasPrefix(name, "net.send."):
			sent += v
		case strings.HasPrefix(name, "net.drop."):
			dropped += v
		}
	}
	if sent == 0 || sentBits == 0 {
		t.Fatalf("no traffic recorded: send=%d bits=%d", sent, sentBits)
	}
	if got := m.Gauge("net.hosts"); got != 3 {
		t.Fatalf("net.hosts = %d", got)
	}
	if dropped != 0 {
		t.Fatalf("unexpected drops without loss injection: %d", dropped)
	}
}

func TestOverlayLossInjection(t *testing.T) {
	o := testOptions(7)
	o.LossRate = 0.2
	o.TraceCapacity = 1 << 16
	ov := newTestOverlay(t, o)
	defer ov.Close()
	// With 20% loss individual joins may legitimately exhaust their
	// retries; keep trying fresh names until three peers are up.
	names := []string{"l1", "l2", "l3", "l4", "l5", "l6", "l7", "l8"}
	up := 0
	for _, name := range names {
		if _, err := ov.Spawn(name); err == nil {
			up++
			ov.Settle(20 * time.Second)
		}
		if up == 3 {
			break
		}
	}
	if up < 3 {
		t.Fatalf("only %d/3 peers joined under 20%% loss", up)
	}
	ov.Settle(time.Minute)
	m := ov.Metrics()
	var sent, sentBits, dropped uint64
	for name, v := range m.Counters {
		switch {
		case strings.HasPrefix(name, "net.send_bits."):
			sentBits += v
		case strings.HasPrefix(name, "net.drop."):
			dropped += v
		case strings.HasPrefix(name, "net.send.") && name != "net.send.unknown_dest":
			sent += v
		}
	}
	if dropped == 0 {
		t.Fatal("loss injection inactive")
	}
	// The per-type rows split the simulator's own accounting exactly.
	if sent != ov.c.MessagesSent || sentBits != ov.c.BitsSent || dropped != ov.c.Dropped {
		t.Fatalf("net.send.* = %d, net.send_bits.* = %d, net.drop.* = %d; cluster counts %d, %d, %d",
			sent, sentBits, dropped, ov.c.MessagesSent, ov.c.BitsSent, ov.c.Dropped)
	}
	if got := m.Gauge("net.hosts"); got != int64(len(ov.Peers())) {
		t.Fatalf("net.hosts = %d with %d live peers", got, len(ov.Peers()))
	}
	// Every injected loss is a drop span (so are the peers' own give-ups).
	var drops uint64
	var buf bytes.Buffer
	if _, err := ov.DumpTrace(&buf); err != nil {
		t.Fatal(err)
	}
	spans, err := trace.ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range spans {
		if s.Kind == trace.SpanDrop {
			drops++
		}
	}
	if drops < dropped {
		t.Fatalf("%d drop spans for %d injected losses", drops, dropped)
	}
}

func TestOverlayTrace(t *testing.T) {
	o := testOptions(8)
	o.TraceCapacity = 256
	ov := newTestOverlay(t, o)
	defer ov.Close()
	buildPeers(t, ov, "t1", "t2", "t3")
	ov.Settle(time.Minute)
	var buf bytes.Buffer
	total, err := ov.DumpTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("trace recorded nothing")
	}
	spans, err := trace.ReadSpans(&buf)
	if err != nil {
		t.Fatalf("DumpTrace output does not parse as spans: %v", err)
	}
	kinds := make(map[trace.SpanKind]int)
	for _, s := range spans {
		kinds[s.Kind]++
	}
	// Every join is a traced tree, and every peer probes its neighbour.
	for _, k := range []trace.SpanKind{trace.SpanOrigin, trace.SpanDeliver, trace.SpanProbeRound} {
		if kinds[k] == 0 {
			t.Fatalf("no %v span among %d: %v", k, len(spans), kinds)
		}
	}
	// Without a capacity the dump is a silent no-op.
	ov2 := newTestOverlay(t, testOptions(9))
	defer ov2.Close()
	if n, err := ov2.DumpTrace(&buf); n != 0 || err != nil {
		t.Fatal("trace should be disabled by default")
	}
}

func TestNewOverlayValidates(t *testing.T) {
	if _, err := NewOverlay(testOptions(70)); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}

	bad := testOptions(71)
	bad.TopListSize = 0
	if _, err := NewOverlay(bad); err == nil {
		t.Fatal("TopListSize=0 accepted")
	}

	bad = testOptions(72)
	bad.LossRate = 1.5
	if err := bad.Validate(); err == nil {
		t.Fatal("LossRate=1.5 accepted")
	}

}

func TestSpawnOptions(t *testing.T) {
	ov, err := NewOverlay(testOptions(74))
	if err != nil {
		t.Fatal(err)
	}
	defer ov.Close()

	if _, err := ov.Spawn("first", WithBudget(2e9), WithInfo([]byte("role=seed"))); err != nil {
		t.Fatal(err)
	}
	ov.Settle(20 * time.Second)
	second, err := ov.Spawn("second")
	if err != nil {
		t.Fatal(err)
	}
	ov.Settle(time.Minute)

	// WithInfo applied before the join, so second's window already
	// carries it without a separate info-change announcement.
	got := second.View().InfoContains("role=seed")
	if len(got) != 1 {
		t.Fatalf("second sees %d pointers with role=seed, want 1", len(got))
	}
}

func TestSpawnRejectsOversizedInfo(t *testing.T) {
	ov, err := NewOverlay(testOptions(75))
	if err != nil {
		t.Fatal(err)
	}
	defer ov.Close()
	if _, err := ov.Spawn("big", WithInfo(make([]byte, MaxInfoLen+1))); err == nil {
		t.Fatal("oversized info accepted")
	}
}

func TestPeerAndOverlayMetrics(t *testing.T) {
	ov, err := NewOverlay(testOptions(76))
	if err != nil {
		t.Fatal(err)
	}
	defer ov.Close()
	peers := buildPeers(t, ov, "m1", "m2", "m3")
	ov.Settle(2 * time.Minute)

	m := peers[0].Metrics()
	if got := m.Counter("peers.added"); got < 2 {
		t.Fatalf("m1 peers.added = %d, want >= 2", got)
	}
	if got := m.Gauge("peer.window_size"); got != 2 {
		t.Fatalf("m1 peer.window_size = %d, want 2", got)
	}
	// The issue's acceptance bar: at least 10 distinct instruments per
	// peer, always present even at zero.
	if total := len(m.Counters) + len(m.Gauges) + len(m.Histograms); total < 10 {
		t.Fatalf("peer snapshot has %d instruments, want >= 10", total)
	}
	if _, ok := m.Histograms["probe.detect_latency_seconds"]; !ok {
		t.Fatal("peer snapshot missing probe.detect_latency_seconds histogram")
	}

	om := ov.Metrics()
	// Network-level instruments only exist overlay-wide.
	var sent uint64
	for name, v := range om.Counters {
		if strings.HasPrefix(name, "net.send.") {
			sent += v
		}
	}
	if sent == 0 {
		t.Fatal("overlay metrics report no sends")
	}
	if got := om.Gauge("net.hosts"); got != 3 {
		t.Fatalf("net.hosts = %d, want 3", got)
	}
	// Gauges add across peers: 3 windows of 2 pointers each.
	if got := om.Gauge("peer.window_size"); got != 6 {
		t.Fatalf("summed peer.window_size = %d, want 6", got)
	}
}

func TestHistogramMean(t *testing.T) {
	h := Histogram{Count: 4, Sum: 10}
	if got := h.Mean(); got != 2.5 {
		t.Fatalf("Mean = %g, want 2.5", got)
	}
	if got := (Histogram{}).Mean(); got != 0 {
		t.Fatalf("empty Mean = %g, want 0", got)
	}
}

// TestSpawnSameNameConcurrently: two Spawns of one name race; exactly one
// wins, the other gets ErrDuplicateName, and the name is listed once.
func TestSpawnSameNameConcurrently(t *testing.T) {
	ov := newTestOverlay(t, testOptions(10))
	defer ov.Close()
	buildPeers(t, ov, "seed")
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = ov.Spawn("x")
		}(i)
	}
	wg.Wait()
	ok, dup := 0, 0
	for _, err := range errs {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrDuplicateName):
			dup++
		default:
			t.Fatalf("Spawn: %v", err)
		}
	}
	if ok != 1 || dup != 1 {
		t.Fatalf("%d Spawns succeeded and %d got ErrDuplicateName, want 1 and 1", ok, dup)
	}
	listed := 0
	for _, p := range ov.Peers() {
		if p.Name() == "x" {
			listed++
		}
	}
	if listed != 1 {
		t.Fatalf("Peers() lists x %d times", listed)
	}
}

// overlayScript drives one overlay through joins, info changes, a leave, a
// crash and a rejoin under loss on a transit-stub topology, and returns
// every live peer's View digest plus the overlay's metrics.
func overlayScript(t *testing.T, seed uint64) (map[string]uint64, MetricsSnapshot) {
	t.Helper()
	o := testOptions(seed)
	o.TransitStub = true
	o.LossRate = 0.02
	o.TraceCapacity = 64
	ov := newTestOverlay(t, o)
	defer ov.Close()
	for i := 0; i < 8; i++ {
		if _, err := ov.Spawn(fmt.Sprintf("p%d", i), WithInfo([]byte(fmt.Sprintf("n=%d", i)))); err != nil {
			t.Fatal(err)
		}
		ov.Settle(10 * time.Second)
	}
	peers := ov.Peers()
	peers[1].SetInfo([]byte("role=archive"))
	peers[2].Leave()
	peers[3].Crash()
	ov.Settle(time.Minute)
	if _, err := ov.Spawn("late", WithBudget(2e9)); err != nil {
		t.Fatal(err)
	}
	ov.Settle(2 * time.Minute)
	digests := make(map[string]uint64)
	for _, p := range ov.Peers() {
		v := p.View()
		digests[p.Name()] = v.v.Digest() ^ v.Epoch()
	}
	return digests, ov.Metrics()
}

// TestOverlaySeedReproducible: one seed and one script give equal windows
// and equal metrics, because the overlay runs in virtual time.
func TestOverlaySeedReproducible(t *testing.T) {
	d1, m1 := overlayScript(t, 11)
	d2, m2 := overlayScript(t, 11)
	if len(d1) != 7 {
		t.Fatalf("%d live peers after the script, want 7", len(d1))
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Fatalf("View digests differ between equal runs:\n%v\n%v", d1, d2)
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Fatal("Metrics() differ between equal runs")
	}
	if m1.Counter("multicast.delivered") == 0 {
		t.Fatal("the script delivered no multicast")
	}
}

// TestOverlayCrashDetected: a silent crash is found by ring probing and
// every survivor drops the pointer.
func TestOverlayCrashDetected(t *testing.T) {
	ov := newTestOverlay(t, testOptions(12))
	defer ov.Close()
	peers := buildPeers(t, ov, "c1", "c2", "c3", "c4", "c5", "c6")
	victim := peers[2].ID()
	peers[2].Crash()
	ov.Settle(2 * time.Minute)
	for _, p := range ov.Peers() {
		if _, ok := p.View().Lookup(victim); ok {
			t.Fatalf("%s still lists the crashed peer", p.Name())
		}
	}
	if got := ov.Metrics().Counter("probe.failures"); got == 0 {
		t.Fatal("no probe failure recorded for the crash")
	}
}

// TestOverlayJoinsAroundDeadBootstraps: a join through a dead node fails,
// so Spawn must only bootstrap through joined, live peers — after most of
// the overlay crashed, every newcomer still joins and sees the survivor.
func TestOverlayJoinsAroundDeadBootstraps(t *testing.T) {
	ov := newTestOverlay(t, testOptions(13))
	defer ov.Close()
	peers := buildPeers(t, ov, "d1", "d2", "d3", "d4")
	for _, p := range peers[:3] {
		p.Crash()
	}
	survivor := peers[3].ID()

	orphan := ov.c.AddNamedNode("orphan", 0)
	if err := ov.c.Join(orphan, peers[0].sn, joinTimeout); err == nil {
		t.Fatal("join through a dead bootstrap succeeded")
	}
	ov.c.Kill(orphan)

	for i := 0; i < 5; i++ {
		p, err := ov.Spawn(fmt.Sprintf("n%d", i))
		if err != nil {
			t.Fatalf("spawn after crashes: %v", err)
		}
		ov.Settle(20 * time.Second)
		if _, ok := p.View().Lookup(survivor); !ok {
			t.Fatalf("%s joined without learning the survivor", p.Name())
		}
	}
}

// TestRespawnGetsFreshIdentifier: identifiers hash the name with the
// node's address, so a name reused after a crash names a new node.
func TestRespawnGetsFreshIdentifier(t *testing.T) {
	ov := newTestOverlay(t, testOptions(14))
	defer ov.Close()
	peers := buildPeers(t, ov, "anchor", "same")
	old := peers[1].ID()
	peers[1].Crash()
	again, err := ov.Spawn("same")
	if err != nil {
		t.Fatal(err)
	}
	if again.ID() == old {
		t.Fatal("a respawned name reused the crashed node's identifier")
	}
}

// TestCloseStopsEveryPeer: Close stops every node, so nothing is sent
// afterwards, and later Spawns fail; a second Close is a no-op.
func TestCloseStopsEveryPeer(t *testing.T) {
	ov := newTestOverlay(t, testOptions(15))
	peers := buildPeers(t, ov, "e1", "e2", "e3")
	ov.Close()
	ov.Close()
	if got := len(ov.Peers()); got != 0 {
		t.Fatalf("Peers() after Close = %d", got)
	}
	sent := ov.c.MessagesSent
	ov.Settle(2 * time.Minute)
	if ov.c.MessagesSent != sent {
		t.Fatalf("%d messages sent after Close", ov.c.MessagesSent-sent)
	}
	if _, err := ov.Spawn("late"); err == nil {
		t.Fatal("Spawn on a closed overlay succeeded")
	}
	if peers[0].View().Len() != 2 {
		t.Fatal("a closed overlay's views are not readable")
	}
}
