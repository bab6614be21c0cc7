package baseline

import (
	"math"
	"testing"

	"peerwindow/internal/des"
)

func TestHeartbeatWastedFractionMatchesPaper(t *testing.T) {
	// §1: 2-hour lifetime, 30-second probes → 239/240 ≈ 99.58 % wasted.
	p := DefaultHeartbeatParams()
	got := p.WastedFraction()
	want := 239.0 / 240.0
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("wasted fraction %.6f want %.6f", got, want)
	}
}

func TestHeartbeatPointersWithinMatchesPaper(t *testing.T) {
	// §1: "if the node uses 10 kbps for pointer maintenance, it can only
	// maintain 600 pointers (assuming each heartbeat message is 500-bit
	// in size)".
	p := DefaultHeartbeatParams()
	got := p.PointersWithin(10000)
	if math.Abs(got-600) > 1e-9 {
		t.Fatalf("pointers within 10kbps = %.1f want 600", got)
	}
}

func TestHeartbeatCostPerPointer(t *testing.T) {
	p := DefaultHeartbeatParams()
	// Probe + reply: 2×500 bits / 30 s.
	want := 1000.0 / 30.0
	if math.Abs(p.CostPerPointer()-want) > 1e-9 {
		t.Fatalf("cost per pointer %.3f want %.3f", p.CostPerPointer(), want)
	}
	if math.Abs(p.CostPer1000()-1000*want) > 1e-6 {
		t.Fatal("CostPer1000 inconsistent")
	}
}

func TestHeartbeatValidate(t *testing.T) {
	bad := []HeartbeatParams{
		{ProbeInterval: 0, MessageBits: 500, MeanLifetime: des.Hour},
		{ProbeInterval: des.Second, MessageBits: 0, MeanLifetime: des.Hour},
		{ProbeInterval: des.Second, MessageBits: 500, MeanLifetime: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	if err := DefaultHeartbeatParams().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
}

func TestWastedFractionClampsAtZero(t *testing.T) {
	p := HeartbeatParams{
		ProbeInterval: 2 * des.Hour,
		MessageBits:   500,
		MeanLifetime:  des.Hour,
	}
	if p.WastedFraction() != 0 {
		t.Fatal("wasted fraction should clamp at 0 for absurd intervals")
	}
}

func TestHeartbeatSimConfirmsClosedForm(t *testing.T) {
	hs := &HeartbeatSim{Params: DefaultHeartbeatParams(), Pointers: 300}
	hs.Run(6*des.Hour, 1)
	// Measured waste should match 239/240 closely.
	if math.Abs(hs.MeasuredWasted-hs.Params.WastedFraction()) > 0.01 {
		t.Fatalf("measured waste %.4f vs closed form %.4f",
			hs.MeasuredWasted, hs.Params.WastedFraction())
	}
	// Mean detection latency ≈ interval/2.
	half := hs.Params.ProbeInterval / 2
	if hs.MeanDetection < half/2 || hs.MeanDetection > 2*half {
		t.Fatalf("mean detection %v want ~%v", hs.MeanDetection, half)
	}
	// Bandwidth ≈ pointers × cost-per-pointer (probe+reply, minus the
	// rare unanswered probes).
	want := float64(hs.Pointers) * hs.Params.CostPerPointer()
	got := hs.MeasuredBps(6 * des.Hour)
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("measured %.1f bit/s want ~%.1f", got, want)
	}
}

func TestHeartbeatSimPanicsWithoutPointers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	(&HeartbeatSim{Params: DefaultHeartbeatParams()}).Run(des.Hour, 1)
}

func TestPeerWindowCostMatchesSection2(t *testing.T) {
	// §2 efficiency example: L = 3600 s, m = 3, i = 1000 bits, r = 1 →
	// maintaining 1000 pointers costs well under 1 kbit/s, and a 5 kbit/s
	// budget collects ~6000 pointers.
	cost := PeerWindowCostPer1000(des.Hour, 3, 1, 1000)
	if cost >= 1000 {
		t.Fatalf("cost per 1000 pointers = %.1f, abstract promises < 1000", cost)
	}
	p := PeerWindowPointersWithin(5000, des.Hour, 3, 1, 1000)
	if math.Abs(p-6000) > 1 {
		t.Fatalf("pointers within 5kbps = %.1f want 6000", p)
	}
}

func TestPeerWindowCostPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PeerWindowCostPer1000(0, 3, 1, 1000)
}

func TestCompareIntro(t *testing.T) {
	hb := DefaultHeartbeatParams()
	hb.MeanLifetime = des.Hour // the §2 example lifetime
	c := CompareIntro(hb, 5000, 3, 1, 1000)
	if c.PeerWindowPointers <= c.HeartbeatPointers {
		t.Fatalf("PeerWindow (%.0f) must beat probing (%.0f)",
			c.PeerWindowPointers, c.HeartbeatPointers)
	}
	// The §1/§2 numbers put the advantage around 20× (6000 vs 300 at
	// 5 kbit/s with probe+reply accounting).
	if c.Advantage < 5 || c.Advantage > 100 {
		t.Fatalf("advantage %.1f outside the plausible band", c.Advantage)
	}
	if c.WastedProbeFraction < 0.95 {
		t.Fatalf("wasted probes %.4f; paper reports ~99%%", c.WastedProbeFraction)
	}
}

func TestGossipCoversEveryone(t *testing.T) {
	gs := &GossipSim{Params: DefaultGossipParams(), Members: 2000}
	gs.Run(1)
	if gs.Covered < gs.Members*99/100 {
		t.Fatalf("gossip covered %d/%d", gs.Covered, gs.Members)
	}
}

func TestGossipIsRedundantVsTree(t *testing.T) {
	gs := &GossipSim{Params: DefaultGossipParams(), Members: 4000}
	gs.Run(2)
	_, treeRedundancy, _ := TreeDissemination(4000, gs.Params.StepCost)
	// The whole point of the §4.2 tree: r = 1 versus gossip's r ≈ 3.
	if gs.Redundancy < 1.5*treeRedundancy {
		t.Fatalf("gossip redundancy %.2f vs tree %.2f: expected clear gap",
			gs.Redundancy, treeRedundancy)
	}
	// Push gossip's closed-form lower bound is Fanout/ln 2 copies per
	// member (≈ 2.89 at Fanout 2).
	if theory := float64(gs.Params.Fanout) / math.Ln2; gs.Redundancy < 0.8*theory {
		t.Fatalf("measured redundancy %.2f below theory %.2f", gs.Redundancy, theory)
	}
}

func TestGossipLatencyLogarithmic(t *testing.T) {
	gs := &GossipSim{Params: DefaultGossipParams(), Members: 4096}
	gs.Run(3)
	maxRounds := 4 * 12 // 4×log2(4096)
	if gs.RoundsNeeded == 0 || gs.RoundsNeeded > maxRounds {
		t.Fatalf("gossip needed %d rounds for 4096 members", gs.RoundsNeeded)
	}
}

func TestTreeDissemination(t *testing.T) {
	msgs, r, complete := TreeDissemination(1024, des.Second)
	if msgs != 1023 {
		t.Fatalf("messages = %d", msgs)
	}
	if r >= 1 {
		t.Fatalf("tree redundancy %.3f should be < 1", r)
	}
	if complete != 10*des.Second {
		t.Fatalf("completion %v want 10s", complete)
	}
	if m, _, _ := TreeDissemination(1, des.Second); m != 0 {
		t.Fatal("degenerate tree should be free")
	}
}

func TestGossipValidate(t *testing.T) {
	for _, p := range []GossipParams{
		{Fanout: 0, Rounds: 10, StepCost: des.Second},
		{Fanout: 2, Rounds: 0, StepCost: des.Second},
		{Fanout: 2, Rounds: 10, StepCost: 0},
	} {
		if err := p.Validate(); err == nil {
			t.Errorf("%+v: expected error", p)
		}
	}
}

func TestGossipDeterministic(t *testing.T) {
	a := &GossipSim{Params: DefaultGossipParams(), Members: 500}
	b := &GossipSim{Params: DefaultGossipParams(), Members: 500}
	a.Run(9)
	b.Run(9)
	if a.Messages != b.Messages || a.Covered != b.Covered || a.CompleteAt != b.CompleteAt {
		t.Fatal("gossip simulation not deterministic under equal seeds")
	}
}

func TestOneHopCostPerNode(t *testing.T) {
	// 100k nodes, m=3, L=135 min, 1000-bit events: every member pays
	// ~37 kbit/s — unaffordable for the 500–600 bit/s budget class.
	p := DefaultOneHopParams(100000)
	got := p.CostPerNode()
	want := 100000.0 * 3 / (135 * 60) * 1000
	if math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("one-hop cost %.0f want %.0f", got, want)
	}
	if got < 30000 {
		t.Fatalf("one-hop cost %.0f should dwarf weak-node budgets", got)
	}
}

func TestOneHopAffordableFraction(t *testing.T) {
	p := DefaultOneHopParams(100000)
	// A budget distribution where quantile q has budget 1000·exp(6q):
	// spans ~1k..400k bit/s.
	budgets := func(q float64) float64 { return 1000 * math.Exp(6*q) }
	frac := p.AffordableFraction(budgets)
	cost := p.CostPerNode()
	// Cross-check: the crossing quantile solves 1000·exp(6q) = cost.
	q := math.Log(cost/1000) / 6
	if math.Abs(frac-(1-q)) > 0.01 {
		t.Fatalf("affordable fraction %.3f want %.3f", frac, 1-q)
	}
}

func TestOneHopValidate(t *testing.T) {
	bad := OneHopParams{}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero params should be invalid")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CostPerNode on invalid params did not panic")
		}
	}()
	bad.CostPerNode()
}
