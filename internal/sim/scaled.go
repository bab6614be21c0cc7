package sim

import (
	"fmt"
	"math/bits"
	"sort"

	"peerwindow/internal/des"
	"peerwindow/internal/metrics"
	"peerwindow/internal/nodeid"
	"peerwindow/internal/wire"
	"peerwindow/internal/workload"
	"peerwindow/internal/xrand"
)

// Scaled is the legacy scaled simulator, kept only for pwbench's
// sim.scaled.* probe rows; delete together with them. Every figure and
// every Run* entry point runs on ShardedScaled, which implements the same
// model over struct-of-arrays storage; apart from pwbench's probe, this
// type's only callers are its own tests and
// TestShardedFiguresAgreeWithLegacy. It keeps its nodes in a Go map and
// walks them in map order (sweep, PeerListSizes, ErrorRates), so its
// samples — Fig 7's error rates above all — differ from run to run on one
// seed.
//
// The model, as the paper built its own experiment (§5): "considering that
// PeerWindow nodes with the same eigenstring would have the same peer
// list, we record all the correct peer lists in a centralized data
// structure, and only record erroneous items in nodes' individual data
// structures."
//
// Concretely: ground truth lives in per-level oracle registries (one
// binary search yields any group's correct peer list and size), nodes
// carry only a profile (threshold, lifetime, level), and the erroneous
// items are exactly the in-flight events — a join or leave is an error
// for an audience member at level l until the tree multicast reaches
// that level, which the delay model below prices at
//
//	d_l = StepCost · ceil(log2(1 + Σ_{j<=l} A_j))
//
// where A_j is the number of level-j audience members and StepCost is
// the per-hop cost (the paper's 1 s forwarding delay plus ~0.5 s network
// latency, §5.1). The full-fidelity Cluster validates this model at small
// scale (see experiments_test.go).
type Scaled struct {
	cfg    ScaledConfig
	Engine *des.Engine
	rng    *xrand.Source
	// pop counts all alive nodes per prefix; lvl counts them per
	// (level, eigenstring) — together they answer every group-size and
	// audience-composition query in O(1).
	pop *prefixCount
	lvl *levelPrefixCount

	nodes map[nodeid.ID]*scaledNode

	// inflight holds undelivered join/leave events, oldest first.
	inflight []*flightEvent

	// eventTimes holds recent event timestamps (all kinds) for traffic
	// accounting; churnTimes holds only joins and leaves — the
	// structural rate the level decisions are based on, so that shift
	// traffic cannot feed back into shift decisions.
	eventTimes []des.Time
	churnTimes []des.Time

	// Accumulated per-level traffic (bits) since the last ResetTraffic.
	inBits, outBits []float64
	trafficSince    des.Time

	// Counters.
	Joins, Leaves, Shifts uint64
}

// ScaledConfig parameterises a scaled run.
type ScaledConfig struct {
	// N is the stationary population.
	N int
	// Workload supplies lifetimes, bandwidths and thresholds (§5.1).
	Workload workload.Config
	// Seed drives all sampling.
	Seed uint64
	// EventBits is the event message size; the paper uses 1000 bits.
	EventBits float64
	// AckBits is the acknowledgement size charged per delivered event.
	AckBits float64
	// StepCost is the per-hop multicast cost; the paper's analysis uses
	// 1 s forwarding + ~0.5 s latency.
	StepCost des.Time
	// SweepInterval is how often the autonomic level sweep re-evaluates
	// every node's level against its budget (the scaled analogue of each
	// node's ShiftCheckInterval).
	SweepInterval des.Time
	// ShiftUpFactor/ShiftDownFactor reproduce the §2 hysteresis.
	ShiftUpFactor   float64
	ShiftDownFactor float64
	// MaxLevel bounds node levels.
	MaxLevel int
}

// DefaultScaledConfig returns the paper's common-experiment parameters
// (§5.1) for the given scale.
func DefaultScaledConfig(n int, seed uint64) ScaledConfig {
	return ScaledConfig{
		N:               n,
		Workload:        workload.DefaultConfig(),
		Seed:            seed,
		EventBits:       1000,
		AckBits:         200,
		StepCost:        1500 * des.Millisecond,
		SweepInterval:   5 * des.Minute,
		ShiftUpFactor:   0.5,
		ShiftDownFactor: 1.0,
		MaxLevel:        maxPrefixDepth,
	}
}

// Validate reports whether the configuration is usable.
func (sc ScaledConfig) Validate() error {
	if sc.N <= 1 {
		return fmt.Errorf("sim: scaled N = %d", sc.N)
	}
	if err := sc.Workload.Validate(); err != nil {
		return err
	}
	if sc.EventBits <= 0 || sc.AckBits < 0 {
		return fmt.Errorf("sim: bad message sizes")
	}
	if sc.StepCost <= 0 || sc.SweepInterval <= 0 {
		return fmt.Errorf("sim: bad timing")
	}
	if sc.ShiftUpFactor <= 0 || sc.ShiftUpFactor >= sc.ShiftDownFactor {
		return fmt.Errorf("sim: bad hysteresis")
	}
	if sc.MaxLevel <= 0 || sc.MaxLevel > maxPrefixDepth {
		return fmt.Errorf("sim: MaxLevel = %d (scaled mode caps at %d)", sc.MaxLevel, maxPrefixDepth)
	}
	return nil
}

// scaledNode is the per-node state: just the profile — the peer list is
// implied by the centralized registries.
type scaledNode struct {
	ptr       wire.Pointer
	threshold float64
	joinedAt  des.Time
	lastShift des.Time
}

// flightEvent is one undelivered state change: an error for audience
// members at level l until doneAt[l].
type flightEvent struct {
	subject nodeid.ID
	kind    wire.EventKind
	at      des.Time
	// doneAt[l] is when level-l audience members have been informed;
	// len(doneAt) == maxLevel+1.
	doneAt []des.Time
	maxAt  des.Time
}

// NewScaled builds the simulator and warm-starts the population at its
// steady-state levels.
func NewScaled(cfg ScaledConfig) *Scaled {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	// Pre-size the rate buffers for the stationary structural rate
	// (joins + leaves = 2N / mean lifetime over one rate window), with
	// 2x headroom for flash-crowd bursts, so steady operation never
	// regrows them.
	expect := int(4*float64(cfg.N)*rateWindow.Seconds()/
		cfg.Workload.EffectiveMeanLifetime().Seconds()) + 64
	s := &Scaled{
		cfg:        cfg,
		Engine:     des.New(),
		rng:        xrand.New(cfg.Seed),
		pop:        newPrefixCount(cfg.MaxLevel),
		lvl:        newLevelPrefixCount(cfg.MaxLevel),
		nodes:      make(map[nodeid.ID]*scaledNode, cfg.N),
		eventTimes: make([]des.Time, 0, expect),
		churnTimes: make([]des.Time, 0, expect),
		inBits:     make([]float64, cfg.MaxLevel+1),
		outBits:    make([]float64, cfg.MaxLevel+1),
	}
	s.populate()
	s.Engine.After(s.cfg.Workload.ArrivalInterval(s.rng, s.cfg.N), s.arrive)
	s.Engine.After(s.cfg.SweepInterval, s.sweep)
	return s
}

// populate warm-starts N nodes at their steady levels.
func (s *Scaled) populate() {
	for i := 0; i < s.cfg.N; i++ {
		profile := s.cfg.Workload.SampleProfile(s.rng)
		id := nodeid.ID{Hi: s.rng.Uint64(), Lo: s.rng.Uint64()}
		level := SteadyLevel(s.cfg.N, s.cfg.Workload.EffectiveMeanLifetime(),
			2, s.cfg.EventBits+s.cfg.AckBits, profile.Threshold, s.cfg.MaxLevel)
		n := &scaledNode{
			ptr:       wire.Pointer{Addr: wire.Addr(i + 1), ID: id, Level: uint8(level)},
			threshold: profile.Threshold,
		}
		s.nodes[id] = n
		s.pop.Add(id)
		s.lvl.Add(id, level)
		// A warm start observes nodes mid-life: use the residual-life
		// distribution, not a fresh lifetime, or the population sags
		// through a long synchronized-cohort transient.
		s.scheduleDeath(n, s.cfg.Workload.SampleResidualLifetime(s.rng))
	}
}

func (s *Scaled) scheduleDeath(n *scaledNode, life des.Time) {
	s.Engine.After(life, func() { s.depart(n) })
}

// Population returns the current live population.
func (s *Scaled) Population() int { return s.pop.Total() }

// arrive creates one node per the Poisson process (§5.1).
func (s *Scaled) arrive() {
	s.Engine.After(s.cfg.Workload.ArrivalInterval(s.rng, s.cfg.N), s.arrive)
	profile := s.cfg.Workload.SampleProfile(s.rng)
	id := nodeid.ID{Hi: s.rng.Uint64(), Lo: s.rng.Uint64()}
	level := s.chooseLevel(profile.Threshold, id)
	n := &scaledNode{
		ptr:       wire.Pointer{Addr: wire.Addr(len(s.nodes) + 1), ID: id, Level: uint8(level)},
		threshold: profile.Threshold,
		joinedAt:  s.Engine.Now(),
	}
	s.nodes[id] = n
	s.pop.Add(id)
	s.lvl.Add(id, level)
	s.Joins++
	s.recordEvent(id, wire.EventJoin)
	s.scheduleDeath(n, profile.Lifetime)
}

// depart removes a node (the scaled model does not distinguish crash from
// announce: both end as one leave event after detection, and the
// detection delay is folded into StepCost calibration).
func (s *Scaled) depart(n *scaledNode) {
	if _, ok := s.nodes[n.ptr.ID]; !ok {
		return
	}
	delete(s.nodes, n.ptr.ID)
	s.pop.Remove(n.ptr.ID)
	s.lvl.Remove(n.ptr.ID, int(n.ptr.Level))
	s.Leaves++
	s.recordEvent(n.ptr.ID, wire.EventLeave)
}

// rateOf estimates a rate (events per second) over the trailing
// rateWindow from a timestamp buffer, pruning it in place.
func (s *Scaled) rateOf(buf *[]des.Time) float64 {
	now := s.Engine.Now()
	live := pruneTimes(buf, now-rateWindow)
	elapsed := rateWindow
	if now < rateWindow {
		elapsed = now + des.Second
	}
	return float64(live) / elapsed.Seconds()
}

// pruneTimes counts the timestamps at or after cutoff in a sorted
// append-only buffer, compacting the buffer when the dead prefix comes
// to dominate it. Compaction copies the live tail down on the same base
// array: the buffer reaches its steady-state capacity once and never
// regrows. (The previous version resliced from the front — b = b[cut:]
// — which bleeds capacity as the base array marches forward, so every
// flash-crowd burst forced a fresh round of reallocations.) Deferring
// the copy until the dead prefix is half the buffer makes the cost
// amortized O(1) per append; the sorted order makes the cut a binary
// search.
func pruneTimes(buf *[]des.Time, cutoff des.Time) int {
	b := *buf
	cut := sort.Search(len(b), func(i int) bool { return b[i] >= cutoff })
	if cut > 0 && cut*2 >= len(b) {
		n := copy(b, b[cut:])
		b = b[:n]
		*buf = b
		cut = 0
	}
	return len(b) - cut
}

// eventRate is the structural (join+leave) rate the autonomy decisions
// use.
func (s *Scaled) eventRate() float64 { return s.rateOf(&s.churnTimes) }

// costAt estimates a node's maintenance input cost (bit/s) at a level:
// the share of events whose subject falls in its prefix, priced at event
// plus ack size — the p = W·L/(m·r·i) formula of §2 driven by the
// measured rate.
func (s *Scaled) costAt(id nodeid.ID, level int, lambda float64) float64 {
	group := s.pop.Count(id, level)
	frac := float64(group) / float64(maxInt(1, s.pop.Total()))
	return lambda * frac * (s.cfg.EventBits + s.cfg.AckBits)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// chooseLevel is the scaled analogue of the §4.3 estimation: pick the
// strongest level whose cost fits the budget under the measured rate.
func (s *Scaled) chooseLevel(threshold float64, id nodeid.ID) int {
	lambda := s.eventRate()
	if lambda == 0 {
		lambda = 2 * float64(s.cfg.N) / s.cfg.Workload.EffectiveMeanLifetime().Seconds()
	}
	for l := 0; l <= s.cfg.MaxLevel; l++ {
		if s.costAt(id, l, lambda) <= threshold {
			return l
		}
	}
	return s.cfg.MaxLevel
}

// sweep is the autonomic loop: every node re-evaluates its level with
// the §2 hysteresis. A full sweep is the deterministic batch equivalent
// of 100,000 independent ShiftCheck timers.
func (s *Scaled) sweep() {
	s.Engine.After(s.cfg.SweepInterval, s.sweep)
	lambda := s.eventRate()
	if lambda == 0 {
		return
	}
	type move struct {
		n  *scaledNode
		to int
	}
	var moves []move
	now := s.Engine.Now()
	cooldown := 2 * s.cfg.SweepInterval
	//pwlint:allow nodeterminism legacy engine, no product caller; deleted with pwbench's sim.scaled.* rows
	for _, n := range s.nodes {
		if now-n.lastShift < cooldown && n.lastShift > 0 {
			continue
		}
		l := int(n.ptr.Level)
		cost := s.costAt(n.ptr.ID, l, lambda)
		switch {
		case cost > n.threshold*s.cfg.ShiftDownFactor && l < s.cfg.MaxLevel:
			moves = append(moves, move{n, l + 1})
		case l > 0 && s.costAt(n.ptr.ID, l-1, lambda) <= n.threshold*s.cfg.ShiftUpFactor*2:
			// Raise only when the cost at the stronger level would still
			// fit comfortably (the §2 example: cost halves below W/2, so
			// doubling it stays below W).
			if cost < n.threshold*s.cfg.ShiftUpFactor {
				moves = append(moves, move{n, l - 1})
			}
		}
	}
	for _, m := range moves {
		from := int(m.n.ptr.Level)
		s.lvl.Remove(m.n.ptr.ID, from)
		m.n.ptr.Level = uint8(m.to)
		m.n.lastShift = now
		s.lvl.Add(m.n.ptr.ID, m.to)
		s.Shifts++
		s.recordEvent(m.n.ptr.ID, wire.EventLevelShift)
	}
}

// recordEvent prices one state change: delivery deadlines per level for
// the error model, and per-level traffic for the bandwidth figures.
func (s *Scaled) recordEvent(subject nodeid.ID, kind wire.EventKind) {
	now := s.Engine.Now()
	s.eventTimes = append(s.eventTimes, now)
	// eventTimes has no reader on the hot path (rateOf prunes churnTimes
	// itself), so prune it here or it grows without bound.
	pruneTimes(&s.eventTimes, now-rateWindow)
	if kind == wire.EventJoin || kind == wire.EventLeave {
		s.churnTimes = append(s.churnTimes, now)
	}
	doneAt := make([]des.Time, s.cfg.MaxLevel+1)
	audience := make([]int, s.cfg.MaxLevel+1)
	totalAudience := 0
	for l := 0; l <= s.cfg.MaxLevel; l++ {
		audience[l] = s.lvl.Audience(subject, l)
		totalAudience += audience[l]
	}
	sTot := stepsFor(totalAudience)
	// Send attribution: a member informed at step s forwards at steps
	// s..sTot, so stronger (earlier-informed) groups send more. Weight
	// each group by (sTot - s_l + 1) and normalise so the total equals
	// the true message count (audience - 1, r = 1).
	cum := 0
	weights := make([]float64, s.cfg.MaxLevel+1)
	var weightSum float64
	for l := 0; l <= s.cfg.MaxLevel; l++ {
		cum += audience[l]
		steps := stepsFor(cum)
		doneAt[l] = now + des.Time(steps)*s.cfg.StepCost
		if audience[l] > 0 {
			w := float64(audience[l]) * float64(sTot-steps+1)
			if w < 0 {
				w = 0
			}
			weights[l] = w
			weightSum += w
			// Each member receives the event once and sends one ack up.
			s.inBits[l] += float64(audience[l]) * (s.cfg.EventBits + s.cfg.AckBits)
			s.outBits[l] += float64(audience[l]) * s.cfg.AckBits
		}
	}
	if weightSum > 0 && totalAudience > 1 {
		totalMsgs := float64(totalAudience - 1)
		for l := 0; l <= s.cfg.MaxLevel; l++ {
			if weights[l] > 0 {
				share := weights[l] / weightSum * totalMsgs
				// Senders also receive the ack for each copy they send.
				s.outBits[l] += share * s.cfg.EventBits
				s.inBits[l] += share * s.cfg.AckBits
			}
		}
	}
	if kind == wire.EventJoin || kind == wire.EventLeave {
		fe := &flightEvent{subject: subject, kind: kind, at: now, doneAt: doneAt}
		fe.maxAt = doneAt[s.cfg.MaxLevel]
		s.inflight = append(s.inflight, fe)
	}
	s.pruneInflight(now)
}

// stepsFor returns the number of multicast steps needed to inform n
// members: each step doubles the informed set. ceil(log2(n+1)) is
// exactly the bit length of n, so no float math is needed — this runs
// once per (event, level) on the hot path.
func stepsFor(n int) int {
	if n <= 0 {
		return 0
	}
	return bits.Len(uint(n))
}

// pruneInflight drops fully delivered events; compaction is amortised.
func (s *Scaled) pruneInflight(now des.Time) {
	cut := 0
	for cut < len(s.inflight) && s.inflight[cut].maxAt <= now {
		s.inflight[cut] = nil
		cut++
	}
	if cut == 0 {
		return
	}
	n := copy(s.inflight, s.inflight[cut:])
	for i := n; i < len(s.inflight); i++ {
		s.inflight[i] = nil
	}
	s.inflight = s.inflight[:n]
}

// Run advances virtual time by d.
func (s *Scaled) Run(d des.Time) { s.Engine.Run(s.Engine.Now() + d) }

// ResetTraffic zeroes the per-level traffic accumulators; measurement
// windows call it at their start.
func (s *Scaled) ResetTraffic() {
	for i := range s.inBits {
		s.inBits[i] = 0
		s.outBits[i] = 0
	}
	s.trafficSince = s.Engine.Now()
}

// LevelCounts returns the population per level (figure 5 / 9 / 11).
func (s *Scaled) LevelCounts() []int {
	out := make([]int, s.cfg.MaxLevel+1)
	for l := range out {
		out[l] = s.lvl.LevelCount(l)
	}
	// Trim trailing zeros for compact reporting.
	last := len(out) - 1
	for last > 0 && out[last] == 0 {
		last--
	}
	return out[:last+1]
}

// PeerListSizes returns per-level min/mean/max correct peer-list sizes
// over a sample of nodes (figure 6).
func (s *Scaled) PeerListSizes(sample int) []metrics.Agg {
	aggs := make([]metrics.Agg, s.cfg.MaxLevel+1)
	i := 0
	//pwlint:allow nodeterminism legacy engine, no product caller; deleted with pwbench's sim.scaled.* rows
	for _, n := range s.nodes {
		if i >= sample && sample > 0 {
			break
		}
		i++
		l := int(n.ptr.Level)
		size := s.pop.Count(n.ptr.ID, l) - 1
		aggs[l].Add(float64(size))
	}
	return aggs
}

// ErrorRates samples nodes and returns per-level mean peer-list error
// rates at the current instant (figures 7 / 10 / 12): for a node at
// level l, every in-flight join/leave whose subject matches its
// eigenstring and whose level-l delivery is still pending is one
// erroneous item.
func (s *Scaled) ErrorRates(sample int) []metrics.Agg {
	now := s.Engine.Now()
	s.pruneInflight(now)
	aggs := make([]metrics.Agg, s.cfg.MaxLevel+1)
	i := 0
	//pwlint:allow nodeterminism legacy engine, no product caller; deleted with pwbench's sim.scaled.* rows
	for _, n := range s.nodes {
		if sample > 0 && i >= sample {
			break
		}
		i++
		l := int(n.ptr.Level)
		eig := nodeid.EigenstringOf(n.ptr.ID, l)
		errs := 0
		for _, fe := range s.inflight {
			if fe.doneAt[l] > now && eig.Contains(fe.subject) {
				errs++
			}
		}
		size := s.pop.Count(n.ptr.ID, l) - 1
		if size <= 0 {
			continue
		}
		aggs[l].Add(float64(errs) / float64(size))
	}
	return aggs
}

// Bandwidth returns per-level mean input and output rates in bit/s since
// the last ResetTraffic (figure 8).
func (s *Scaled) Bandwidth() (in, out []metrics.Agg) {
	elapsed := (s.Engine.Now() - s.trafficSince).Seconds()
	if elapsed <= 0 {
		elapsed = 1
	}
	in = make([]metrics.Agg, s.cfg.MaxLevel+1)
	out = make([]metrics.Agg, s.cfg.MaxLevel+1)
	for l := 0; l <= s.cfg.MaxLevel; l++ {
		pop := s.lvl.LevelCount(l)
		if pop == 0 {
			continue
		}
		in[l].Add(s.inBits[l] / elapsed / float64(pop))
		out[l].Add(s.outBits[l] / elapsed / float64(pop))
	}
	return in, out
}
