package sim

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"peerwindow/internal/des"
	"peerwindow/internal/freelist"
	"peerwindow/internal/metrics"
	"peerwindow/internal/nodeid"
	"peerwindow/internal/shard"
	"peerwindow/internal/workload"
	"peerwindow/internal/xrand"
)

// ShardedScaled is the scaled simulator: the one engine behind every
// figure (RunCommon and the sweeps run it at one shard) and behind the
// million-node runs. It models the paper's own experiment (§5):
// "considering that PeerWindow nodes with the same eigenstring would have
// the same peer list, we record all the correct peer lists in a
// centralized data structure, and only record erroneous items in nodes'
// individual data structures."
//
// Concretely: ground truth lives in per-level prefix counts (one lookup
// yields any group's correct peer-list size), nodes carry only a profile
// (threshold, level, last shift), and the erroneous items are exactly the
// in-flight events — a join or leave is an error for an audience member
// at level l until the tree multicast reaches that level, which the delay
// model prices at
//
//	d_l = stepCost · ceil(log2(1 + Σ_{j<=l} A_j))
//
// where A_j is the number of level-j audience members and stepCost is the
// per-hop cost (the paper's 1 s forwarding delay plus ~0.5 s network
// latency, §5.1). The full-fidelity Cluster validates this model at small
// scale (TestScaledMatchesFullFidelity, RunCommonFull).
//
// Node state is struct-of-arrays storage (soa.go), so a one-million-node
// churn run fits in RAM and the event work of the 256 identifier-space
// slices can be spread across shard worker goroutines.
//
// The design problem is that the scaled model's decisions read *global*
// state — prefix population counts and the measured churn rate — which
// a naive partitioning would turn into cross-shard data races whose
// outcome depends on worker scheduling. ShardedScaled makes the global
// state explicit and windowed instead: all shared counts are a frozen
// snapshot that every slice reads during a window, and every membership
// change is a delta queued by the owning shard and applied at the
// single-threaded window barrier. A window spans one conservative
// horizon (min next event + one multicast step, stepCost): remote
// knowledge in the real system propagates no faster than a multicast
// hop, so reading counts one window stale is the
// physically honest choice — and it makes every decision a pure function
// of (frozen snapshot, slice-local state), independent of how slices are
// grouped into shards or scheduled onto workers. A run with Shards=1
// executes the *identical* algorithm — same windows, same frozen reads —
// so shards=1 and shards=K replay bit-identically for any K.
//
// Event ordering is kept shard-count-invariant by tie-break keys: every
// scheduled event carries (slice index, per-slice counter), so engines
// order same-instant events identically no matter which engine holds
// them (des.AtKey), and flight records merge at barriers in (time, key)
// order no matter which shard produced them.
type ShardedScaled struct {
	cfg    ShardedScaledConfig
	shards []*scaledShard
	slices [sliceCount]*popSlice
	driver *shard.Driver

	// Frozen global snapshot: written only at barriers (and during
	// construction), read freely by all shards during windows.
	pop        *prefixCount
	lvl        *levelPrefixCount
	deepest    int     // deepest level with population, per the snapshot
	frozenRate float64 // churn rate (events/s) as of the last barrier

	// inflight holds undelivered join/leave events, oldest first,
	// merged from all shards in deterministic (time, key) order.
	inflight []shardFlight

	// churnLog holds per-window join+leave counts inside the trailing
	// rate window, oldest first.
	churnLog []rateSample

	trafficSince des.Time

	// Counters, aggregated from the shards at each barrier.
	Joins, Leaves, Shifts uint64
}

// ScaledConfig parameterises the scaled model.
type ScaledConfig struct {
	// N is the stationary population.
	N int
	// Workload supplies lifetimes, bandwidths and thresholds (§5.1).
	Workload workload.Config
	// Seed drives all sampling.
	Seed uint64
}

// The scaled model's fixed parameters (§5.1). Node levels are bounded by
// maxPrefixDepth, the deepest prefix the counts resolve.
const (
	// eventBits is the event message size; the paper uses 1000 bits.
	eventBits float64 = 1000
	// ackBits is the acknowledgement size charged per delivered event.
	ackBits float64 = 200
	// stepCost is the per-hop multicast cost; the paper's analysis uses
	// 1 s forwarding + ~0.5 s latency. It is also the window lookahead:
	// membership knowledge propagates no faster than one hop.
	stepCost = 1500 * des.Millisecond
	// sweepInterval is how often the autonomic level sweep re-evaluates
	// every node's level against its budget (the scaled analogue of each
	// node's ShiftCheckInterval).
	sweepInterval = 5 * des.Minute
	// shiftUpFactor and shiftDownFactor reproduce the §2 hysteresis with
	// core.DefaultConfig's values.
	shiftUpFactor   = 0.5
	shiftDownFactor = 1.0
)

// DefaultScaledConfig returns the paper's common-experiment parameters
// (§5.1) for the given scale.
func DefaultScaledConfig(n int, seed uint64) ScaledConfig {
	return ScaledConfig{N: n, Workload: workload.DefaultConfig(), Seed: seed}
}

// Validate reports whether the configuration is usable.
func (sc ScaledConfig) Validate() error {
	if sc.N <= 1 {
		return fmt.Errorf("sim: scaled N = %d", sc.N)
	}
	return sc.Workload.Validate()
}

// ShardedScaledConfig parameterises a sharded scaled run.
type ShardedScaledConfig struct {
	ScaledConfig
	// Shards is the number of per-shard engines; a power of two dividing
	// 256 (the fixed slice count). 0 means 1.
	Shards int
	// Workers is the number of goroutines driving the shards; <= 0 means
	// GOMAXPROCS. Worker count never affects results, only wall time.
	Workers int
}

// DefaultShardedScaledConfig mirrors DefaultScaledConfig with the given
// shard count.
func DefaultShardedScaledConfig(n int, seed uint64, shards int) ShardedScaledConfig {
	return ShardedScaledConfig{ScaledConfig: DefaultScaledConfig(n, seed), Shards: shards}
}

// rateSample is one barrier's churn count: `count` joins+leaves happened
// in the window ending at `until`.
type rateSample struct {
	until des.Time
	count int32
}

// shardFlight is one undelivered membership event: an error for audience
// members at level l until doneAt.t[l]. seq carries the (slice, counter)
// tie-break key that makes the barrier merge order shard-count-invariant,
// and doneAt comes from its shard's free list instead of a fresh
// allocation per event.
type shardFlight struct {
	subject nodeid.ID
	at      des.Time
	maxAt   des.Time
	seq     uint64
	doneAt  *flightTimes
}

// flightTimes holds a flight's per-level delivery deadlines.
type flightTimes struct {
	t    [maxPrefixDepth + 1]des.Time
	next *flightTimes
}

// Link implements freelist.Linked.
func (r *flightTimes) Link() **flightTimes { return &r.next }

// countDelta is one queued membership change, applied to the frozen
// snapshot at the next barrier. Count updates commute, so deltas need no
// cross-shard ordering.
type countDelta struct {
	id       nodeid.ID
	kind     uint8
	from, to uint8
}

const (
	deltaJoin uint8 = iota
	deltaLeave
	deltaShift
)

// scaledShard is one engine, which runs a contiguous run of slices, plus
// the single-writer buffers its worker fills during a window and the
// barrier drains.
type scaledShard struct {
	engine *des.Engine

	flights               []shardFlight
	deltas                []countDelta
	churn                 int
	joins, leaves, shifts uint64
	doneAt                freelist.List[flightTimes, *flightTimes]
}

// NewShardedScaled builds the simulator and warm-starts the population at
// its steady-state levels. Nodes are dealt to the 256 slices (cfg.N/256
// each, remainder to the lowest slices) and each slice draws from its own
// label-split RNG stream, so the construction too is independent of the
// shard count.
func NewShardedScaled(cfg ShardedScaledConfig) *ShardedScaled {
	if err := cfg.ScaledConfig.Validate(); err != nil {
		panic(err)
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.Shards < 1 || cfg.Shards > sliceCount || bits.OnesCount(uint(cfg.Shards)) != 1 {
		panic(fmt.Sprintf("sim: Shards = %d (need a power of two in [1, %d])", cfg.Shards, sliceCount))
	}
	s := &ShardedScaled{
		cfg: cfg,
		pop: newPrefixCount(maxPrefixDepth),
		lvl: newLevelPrefixCount(maxPrefixDepth),
	}
	perShard := sliceCount / cfg.Shards
	for i := 0; i < cfg.Shards; i++ {
		s.shards = append(s.shards, &scaledShard{engine: des.New()})
	}
	root := xrand.New(cfg.Seed)
	for i := 0; i < sliceCount; i++ {
		sh := s.shards[i/perShard]
		sl := &popSlice{
			shard:    sh,
			idx:      int32(i),
			target:   cfg.N / sliceCount,
			rng:      root.Split(uint64(i)),
			inBits:   make([]float64, maxPrefixDepth+1),
			outBits:  make([]float64, maxPrefixDepth+1),
			audience: make([]int32, maxPrefixDepth+1),
			weights:  make([]float64, maxPrefixDepth+1),
		}
		if i < cfg.N%sliceCount {
			sl.target++
		}
		s.slices[i] = sl
	}
	s.populate()
	for _, sl := range s.slices {
		sl := sl
		if sl.target > 0 {
			arrive := func() { s.arrive(sl) }
			sl.arriveFn = arrive
			s.scheduleArrival(sl)
		}
		sl.sweepFn = func() { s.sweepSlice(sl) }
		sl.reapFn = func() { s.reap(sl) }
		s.scheduleSweep(sl)
		s.armDeath(sl)
	}
	s.refreshDeepest()
	engines := make([]shard.Shard, cfg.Shards)
	for i, sh := range s.shards {
		engines[i] = sh.engine
	}
	s.driver = shard.NewDriver(shard.Config{
		Lookahead: stepCost,
		Workers:   cfg.Workers,
		Exchange:  s.exchange,
	}, engines...)
	return s
}

// populate warm-starts every slice's share of the population at steady
// levels and queues its departures. A warm start observes nodes mid-life,
// so lifetimes come from the residual-life distribution, not a fresh
// draw, or the population sags through a long synchronized-cohort
// transient.
func (s *ShardedScaled) populate() {
	meanLife := s.cfg.Workload.EffectiveMeanLifetime()
	perEvent := eventBits + ackBits
	for _, sl := range s.slices {
		for j := 0; j < sl.target; j++ {
			profile := s.cfg.Workload.SampleProfile(sl.rng)
			id := sliceID(sl.idx, sl.rng)
			level := SteadyLevel(s.cfg.N, meanLife, 2, perEvent, profile.Threshold, maxPrefixDepth)
			slot := sl.alloc()
			sl.put(slot, id, profile.Threshold, level)
			s.pop.addLeaf(id)
			s.lvl.Add(id, level)
			sl.deaths.push(deathEntry{
				at:   des.Time(s.cfg.Workload.SampleResidualLifetime(sl.rng)),
				slot: slot,
			})
		}
	}
	s.pop.fold()
}

// scheduleArrival arms the slice's next Poisson arrival (§5.1). Each
// slice runs an independent process at its share of the global rate; the
// superposition is the global Poisson process.
func (s *ShardedScaled) scheduleArrival(sl *popSlice) {
	gap := s.cfg.Workload.ArrivalInterval(sl.rng, sl.target)
	sl.shard.engine.AtKey(sl.shard.engine.Now()+gap, sl.key(), des.EventTag{}, sl.arriveFn)
}

// scheduleSweep arms the slice's next autonomic level sweep.
func (s *ShardedScaled) scheduleSweep(sl *popSlice) {
	sl.shard.engine.AtKey(sl.shard.engine.Now()+sweepInterval, sl.key(), des.EventTag{}, sl.sweepFn)
}

// armDeath keeps exactly one engine timer armed per slice, at the heap's
// minimum departure time.
func (s *ShardedScaled) armDeath(sl *popSlice) {
	if len(sl.deaths) == 0 {
		if sl.deathAt != 0 {
			sl.deathH.Cancel()
			sl.deathAt = 0
		}
		return
	}
	min := sl.deaths[0].at
	if sl.deathAt != 0 && sl.deathAt <= min {
		return
	}
	sl.deathH.Cancel()
	sl.deathH = sl.shard.engine.AtKey(min, sl.key(), des.EventTag{}, sl.reapFn)
	sl.deathAt = min
}

// arrive creates one node per the slice's Poisson process.
func (s *ShardedScaled) arrive(sl *popSlice) {
	s.scheduleArrival(sl)
	profile := s.cfg.Workload.SampleProfile(sl.rng)
	id := sliceID(sl.idx, sl.rng)
	level := s.chooseLevel(profile.Threshold, id)
	slot := sl.alloc()
	sl.put(slot, id, profile.Threshold, level)
	sh := sl.shard
	sh.deltas = append(sh.deltas, countDelta{id: id, kind: deltaJoin, to: uint8(level)})
	sh.joins++
	sh.churn++
	s.record(sl, id, true)
	sl.deaths.push(deathEntry{at: sh.engine.Now() + profile.Lifetime, slot: slot})
	s.armDeath(sl)
}

// reap departs every node whose time has come and re-arms the timer. The
// model does not distinguish crash from announce: both end as one leave
// event after detection, and the detection delay is folded into the
// stepCost calibration.
func (s *ShardedScaled) reap(sl *popSlice) {
	sl.deathAt = 0
	sh := sl.shard
	now := sh.engine.Now()
	for len(sl.deaths) > 0 && sl.deaths[0].at <= now {
		e := sl.deaths.pop()
		id := sl.ids[e.slot]
		level := sl.level[e.slot]
		sl.release(e.slot)
		sh.deltas = append(sh.deltas, countDelta{id: id, kind: deltaLeave, from: level})
		sh.leaves++
		sh.churn++
		s.record(sl, id, true)
	}
	s.armDeath(sl)
}

// costAtFrozen prices a node's maintenance input cost (bit/s) at a level
// against the frozen snapshot: the share of events whose subject falls in
// its prefix, priced at event plus ack size — the p = W·L/(m·r·i) formula
// of §2 driven by the measured rate.
func (s *ShardedScaled) costAtFrozen(id nodeid.ID, level int, lambda float64) float64 {
	group := s.pop.Count(id, level)
	frac := float64(group) / float64(max(1, s.pop.Total()))
	return lambda * frac * (eventBits + ackBits)
}

// chooseLevel is the scaled analogue of the §4.3 estimation: an arriving
// node takes the strongest level whose cost fits its budget under the
// frozen rate and counts.
func (s *ShardedScaled) chooseLevel(threshold float64, id nodeid.ID) int {
	lambda := s.frozenRate
	if lambda == 0 {
		lambda = 2 * float64(s.cfg.N) / s.cfg.Workload.EffectiveMeanLifetime().Seconds()
	}
	for l := 0; l <= maxPrefixDepth; l++ {
		if s.costAtFrozen(id, l, lambda) <= threshold {
			return l
		}
	}
	return maxPrefixDepth
}

// sweepSlice is the autonomic loop for one slice: every node re-evaluates
// its level with the §2 hysteresis, the deterministic batch equivalent of
// independent ShiftCheck timers. Decisions read only the frozen snapshot,
// so level changes apply to the slice immediately without feeding back
// into the same sweep, and reach other slices' view at the next barrier.
func (s *ShardedScaled) sweepSlice(sl *popSlice) {
	s.scheduleSweep(sl)
	lambda := s.frozenRate
	if lambda == 0 {
		return
	}
	sh := sl.shard
	now := sh.engine.Now()
	cooldown := 2 * sweepInterval
	for slot := range sl.level {
		l := int(sl.level[slot])
		if l == levelFree {
			continue
		}
		if now-sl.lastShift[slot] < cooldown && sl.lastShift[slot] > 0 {
			continue
		}
		id := sl.ids[slot]
		th := sl.threshold[slot]
		cost := s.costAtFrozen(id, l, lambda)
		to := -1
		switch {
		case cost > th*shiftDownFactor && l < maxPrefixDepth:
			to = l + 1
		case l > 0 && s.costAtFrozen(id, l-1, lambda) <= th*shiftUpFactor*2:
			// Raise only when the cost at the stronger level would still
			// fit comfortably (the §2 example: cost halves below W/2, so
			// doubling it stays below W).
			if cost < th*shiftUpFactor {
				to = l - 1
			}
		}
		if to < 0 {
			continue
		}
		sl.level[slot] = uint8(to)
		sl.lastShift[slot] = now
		sh.deltas = append(sh.deltas, countDelta{id: id, kind: deltaShift, from: uint8(l), to: uint8(to)})
		sh.shifts++
		s.record(sl, id, false)
	}
}

// record prices one state change against the frozen snapshot: delivery
// deadlines per level for the error model (joins and leaves only) and
// per-level traffic for the bandwidth figures. Send attribution: a member
// informed at step s forwards at steps s..sTot, so stronger
// (earlier-informed) groups send more; each group is weighted by
// (sTot - s_l + 1) and normalised so the total equals the true message
// count (audience - 1, r = 1). The level loop stops at the snapshot's
// deepest populated level (audiences above it are zero, so the tail of
// doneAt is constant), and the doneAt buffer is pooled.
func (s *ShardedScaled) record(sl *popSlice, subject nodeid.ID, churn bool) {
	sh := sl.shard
	now := sh.engine.Now()
	deep := s.deepest
	aud := sl.audience[:deep+1]
	totalAudience := 0
	for l := 0; l <= deep; l++ {
		a := int32(s.lvl.Audience(subject, l))
		aud[l] = a
		totalAudience += int(a)
	}
	sTot := stepsFor(totalAudience)
	var doneAt *flightTimes
	if churn {
		doneAt = sh.doneAt.Get()
	}
	cum := 0
	w := sl.weights[:deep+1]
	var weightSum float64
	for l := 0; l <= deep; l++ {
		cum += int(aud[l])
		steps := stepsFor(cum)
		if doneAt != nil {
			doneAt.t[l] = now + des.Time(steps)*stepCost
		}
		w[l] = 0
		if aud[l] > 0 {
			wt := float64(aud[l]) * float64(sTot-steps+1)
			if wt < 0 {
				wt = 0
			}
			w[l] = wt
			weightSum += wt
			// Each member receives the event once and sends one ack up.
			sl.inBits[l] += float64(aud[l]) * (eventBits + ackBits)
			sl.outBits[l] += float64(aud[l]) * ackBits
		}
	}
	if weightSum > 0 && totalAudience > 1 {
		totalMsgs := float64(totalAudience - 1)
		for l := 0; l <= deep; l++ {
			if w[l] > 0 {
				share := w[l] / weightSum * totalMsgs
				// Senders also receive the ack for each copy they send.
				sl.outBits[l] += share * eventBits
				sl.inBits[l] += share * ackBits
			}
		}
	}
	if doneAt != nil {
		last := doneAt.t[deep]
		for l := deep + 1; l <= maxPrefixDepth; l++ {
			doneAt.t[l] = last
		}
		sh.flights = append(sh.flights, shardFlight{
			subject: subject, at: now, maxAt: last, seq: sl.key(), doneAt: doneAt,
		})
	}
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

// exchange is the window barrier: single-threaded between windows, it
// applies every shard's queued deltas to the snapshot, merges the new
// flights in (time, key) order, refreshes the frozen churn rate, and
// prunes delivered flights. The horizon sequence it runs at is itself
// shard-count-invariant (min next event + stepCost, both global), so the
// snapshot every window reads is too.
func (s *ShardedScaled) exchange(h des.Time) {
	churn := 0
	newStart := len(s.inflight)
	for _, sh := range s.shards {
		for i := range sh.deltas {
			d := &sh.deltas[i]
			switch d.kind {
			case deltaJoin:
				s.pop.Add(d.id)
				s.lvl.Add(d.id, int(d.to))
			case deltaLeave:
				s.pop.Remove(d.id)
				s.lvl.Remove(d.id, int(d.from))
			case deltaShift:
				s.lvl.Remove(d.id, int(d.from))
				s.lvl.Add(d.id, int(d.to))
			}
		}
		sh.deltas = sh.deltas[:0]
		s.inflight = append(s.inflight, sh.flights...)
		for i := range sh.flights {
			sh.flights[i].doneAt = nil
		}
		sh.flights = sh.flights[:0]
		churn += sh.churn
		sh.churn = 0
		s.Joins += sh.joins
		sh.joins = 0
		s.Leaves += sh.leaves
		sh.leaves = 0
		s.Shifts += sh.shifts
		sh.shifts = 0
	}
	if batch := s.inflight[newStart:]; len(batch) > 1 {
		slices.SortFunc(batch, func(a, b shardFlight) int {
			if c := cmp.Compare(a.at, b.at); c != 0 {
				return c
			}
			return cmp.Compare(a.seq, b.seq)
		})
	}
	s.recordRate(h, churn)
	s.refreshDeepest()
	s.pruneInflight(h)
}

// rateWindow is the trailing window the churn rate is measured over.
const rateWindow = 5 * des.Minute

// recordRate folds one window's churn count into the trailing-rate log
// and refreezes the rate. Only joins and leaves count — the structural
// rate the level decisions are based on — so shift traffic cannot feed
// back into shift decisions. The rate is window-granular; windows
// (default 1.5 s) are far smaller than the 5-minute rate window. Expired
// samples are copied down on the same base array, so the log reaches its
// steady-state capacity once and never regrows.
func (s *ShardedScaled) recordRate(h des.Time, churn int) {
	s.churnLog = append(s.churnLog, rateSample{until: h, count: int32(churn)})
	cut := 0
	for cut < len(s.churnLog) && s.churnLog[cut].until <= h-rateWindow {
		cut++
	}
	if cut > 0 {
		n := copy(s.churnLog, s.churnLog[cut:])
		s.churnLog = s.churnLog[:n]
	}
	events := 0
	for _, r := range s.churnLog {
		events += int(r.count)
	}
	elapsed := rateWindow
	if h < rateWindow {
		elapsed = h + des.Second
	}
	s.frozenRate = float64(events) / elapsed.Seconds()
}

// refreshDeepest recomputes the deepest populated level of the snapshot.
func (s *ShardedScaled) refreshDeepest() {
	deep := 0
	for l := maxPrefixDepth; l >= 0; l-- {
		if s.lvl.LevelCount(l) > 0 {
			deep = l
			break
		}
	}
	s.deepest = deep
}

// pruneInflight drops fully delivered flights from the front and
// recycles each doneAt buffer to the shard that took it (the slice index
// is seq's top half), so every shard's pool stays at its own peak demand
// however unevenly churn falls across shards. Pool placement affects
// allocation only, never results.
func (s *ShardedScaled) pruneInflight(now des.Time) {
	cut := 0
	for cut < len(s.inflight) && s.inflight[cut].maxAt <= now {
		sh := s.slices[s.inflight[cut].seq>>32].shard
		sh.doneAt.Put(s.inflight[cut].doneAt)
		s.inflight[cut].doneAt = nil
		cut++
	}
	if cut == 0 {
		return
	}
	n := copy(s.inflight, s.inflight[cut:])
	for i := n; i < len(s.inflight); i++ {
		s.inflight[i] = shardFlight{}
	}
	s.inflight = s.inflight[:n]
}

// Now returns the current virtual time (all shard clocks agree between
// runs).
func (s *ShardedScaled) Now() des.Time { return s.shards[0].engine.Now() }

// Run advances virtual time by d across all shards.
func (s *ShardedScaled) Run(d des.Time) { s.driver.Run(s.Now() + d) }

// Population returns the current live population.
func (s *ShardedScaled) Population() int { return s.pop.Total() }

// EventsExecuted returns the total engine events fired across all
// shards — a shard-count-invariant count (arrivals, death-timer firings
// and sweeps are all per-slice).
func (s *ShardedScaled) EventsExecuted() uint64 {
	var n uint64
	for _, sh := range s.shards {
		n += sh.engine.Executed()
	}
	return n
}

// DriverStats returns the shard driver's window, event and critical-path
// counts for the run so far. They depend on the shard count (that is the
// point: events ÷ critical path bounds the speed-up K shards can give)
// but never on the worker count.
func (s *ShardedScaled) DriverStats() shard.Stats { return s.driver.Stats() }

// forEachNode visits live nodes in canonical (slice, slot) order until
// fn returns false.
func (s *ShardedScaled) forEachNode(fn func(sl *popSlice, slot int) bool) {
	for _, sl := range s.slices {
		for slot := range sl.level {
			if sl.level[slot] == levelFree {
				continue
			}
			if !fn(sl, slot) {
				return
			}
		}
	}
}

// LevelCounts returns the population per level (figure 5 / 9 / 11).
func (s *ShardedScaled) LevelCounts() []int {
	out := make([]int, maxPrefixDepth+1)
	for l := range out {
		out[l] = s.lvl.LevelCount(l)
	}
	last := len(out) - 1
	for last > 0 && out[last] == 0 {
		last--
	}
	return out[:last+1]
}

// PeerListSizes returns per-level min/mean/max correct peer-list sizes
// over a sample of nodes (figure 6), sampled in (slice, slot) order.
func (s *ShardedScaled) PeerListSizes(sample int) []metrics.Agg {
	aggs := make([]metrics.Agg, maxPrefixDepth+1)
	i := 0
	s.forEachNode(func(sl *popSlice, slot int) bool {
		if sample > 0 && i >= sample {
			return false
		}
		i++
		l := int(sl.level[slot])
		size := s.pop.Count(sl.ids[slot], l) - 1
		aggs[l].Add(float64(size))
		return true
	})
	return aggs
}

// ErrorRates samples nodes and returns per-level mean peer-list error
// rates at the current instant (figures 7 / 10 / 12): for a node at level
// l, every in-flight join/leave whose subject matches its eigenstring and
// whose level-l delivery is still pending is one erroneous item. Nodes
// are sampled in (slice, slot) order, so the result is a pure function of
// the simulation state.
func (s *ShardedScaled) ErrorRates(sample int) []metrics.Agg {
	now := s.Now()
	s.pruneInflight(now)
	aggs := make([]metrics.Agg, maxPrefixDepth+1)
	// pending[l] counts, per l-bit prefix, the events not yet delivered at
	// level l; built at a level's first sampled node, it turns each node's
	// erroneous items into one lookup instead of a scan of every event.
	pending := make([]map[uint64]int, maxPrefixDepth+1)
	i := 0
	s.forEachNode(func(sl *popSlice, slot int) bool {
		if sample > 0 && i >= sample {
			return false
		}
		i++
		l := int(sl.level[slot])
		if pending[l] == nil {
			m := make(map[uint64]int)
			for fi := range s.inflight {
				if fe := &s.inflight[fi]; fe.doneAt.t[l] > now {
					m[bucket(fe.subject, l)]++
				}
			}
			pending[l] = m
		}
		errs := pending[l][bucket(sl.ids[slot], l)]
		size := s.pop.Count(sl.ids[slot], l) - 1
		if size > 0 {
			aggs[l].Add(float64(errs) / float64(size))
		}
		return true
	})
	return aggs
}

// Bandwidth returns per-level mean input and output rates in bit/s since
// the last ResetTraffic (figure 8). Slice accumulators are summed in
// slice order, keeping the float result shard-count-invariant.
func (s *ShardedScaled) Bandwidth() (in, out []metrics.Agg) {
	elapsed := (s.Now() - s.trafficSince).Seconds()
	if elapsed <= 0 {
		elapsed = 1
	}
	in = make([]metrics.Agg, maxPrefixDepth+1)
	out = make([]metrics.Agg, maxPrefixDepth+1)
	for l := 0; l <= maxPrefixDepth; l++ {
		pop := s.lvl.LevelCount(l)
		if pop == 0 {
			continue
		}
		var ib, ob float64
		for _, sl := range s.slices {
			ib += sl.inBits[l]
			ob += sl.outBits[l]
		}
		in[l].Add(ib / elapsed / float64(pop))
		out[l].Add(ob / elapsed / float64(pop))
	}
	return in, out
}

// ResetTraffic zeroes the per-level traffic accumulators; measurement
// windows call it at their start.
func (s *ShardedScaled) ResetTraffic() {
	for _, sl := range s.slices {
		for l := range sl.inBits {
			sl.inBits[l] = 0
			sl.outBits[l] = 0
		}
	}
	s.trafficSince = s.Now()
}

// Digest hashes the complete simulation state — every live node in
// (slice, slot) order, the level census, counters, in-flight events and
// the frozen rate — into one 64-bit value. Two runs from the same seed
// must produce the same digest regardless of Shards and Workers; the
// determinism tests and pwbench's fingerprint compare exactly this.
func (s *ShardedScaled) Digest() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		h ^= v
		h *= prime64
	}
	mix(uint64(s.pop.Total()))
	for l := 0; l <= maxPrefixDepth; l++ {
		mix(uint64(s.lvl.LevelCount(l)))
	}
	for _, sl := range s.slices {
		mix(uint64(sl.live))
		for slot := range sl.level {
			if sl.level[slot] == levelFree {
				continue
			}
			mix(sl.ids[slot].Hi)
			mix(sl.ids[slot].Lo)
			mix(uint64(sl.level[slot]))
			mix(math.Float64bits(sl.threshold[slot]))
			mix(uint64(sl.lastShift[slot]))
		}
	}
	mix(s.Joins)
	mix(s.Leaves)
	mix(s.Shifts)
	mix(s.EventsExecuted())
	mix(math.Float64bits(s.frozenRate))
	mix(uint64(len(s.inflight)))
	for i := range s.inflight {
		fe := &s.inflight[i]
		mix(fe.subject.Hi)
		mix(fe.subject.Lo)
		mix(uint64(fe.at))
		mix(uint64(fe.maxAt))
		mix(fe.seq)
	}
	mix(uint64(s.Now()))
	return h
}

// MemoryFootprint returns the bytes held by the SoA node storage and the
// death heaps — the per-node state a memory budget is measured against.
func (s *ShardedScaled) MemoryFootprint() (bytes uint64, nodes int) {
	for _, sl := range s.slices {
		bytes += uint64(cap(sl.ids))*16 +
			uint64(cap(sl.threshold))*8 +
			uint64(cap(sl.level)) +
			uint64(cap(sl.lastShift))*8 +
			uint64(cap(sl.free))*4 +
			uint64(cap(sl.deaths))*16
		nodes += sl.live
	}
	return bytes, nodes
}

// Scaled is ShardedScaled at one shard under the name its only caller,
// cmd/pwbench's traced probe, reads: Run, ErrorRates and Engine.Executed.
// It goes when pwbench drops its sim.scaled.* rows.
type Scaled struct {
	*ShardedScaled
	Engine *des.Engine
}

// NewScaled builds a one-shard ShardedScaled and exposes its engine.
func NewScaled(cfg ScaledConfig) *Scaled {
	s := NewShardedScaled(ShardedScaledConfig{ScaledConfig: cfg, Shards: 1})
	return &Scaled{ShardedScaled: s, Engine: s.shards[0].engine}
}
