// Package model is a stateless (re-execution based) model checker for
// the PeerWindow protocol: it explores the schedule space of a tiny
// cluster — which runnable event fires next, message-vs-timer races, and
// drop/no-drop branches — by driving the deterministic simulation
// through the des.Chooser choice point, checking protocol invariants
// after every step and the ground-truth oracle at every quiescent leaf.
//
// The search is bounded DFS in the CHESS style: a schedule is the list
// of decisions taken at branch points (forced steps are not recorded),
// and each schedule prefix is re-executed from scratch, so the checker
// holds no simulator state between paths. Dedup over a canonical
// protocol-state digest and a commute rule for events at disjoint nodes
// prune the exponential blow-up. A violation yields a minimal replayable
// Schedule; Replay re-executes it deterministically, optionally
// recording causal spans for cmd/pwtrace.
package model

import (
	"fmt"

	"peerwindow/internal/des"
	"peerwindow/internal/oracle"
	"peerwindow/internal/sim"
	"peerwindow/internal/trace"
	"peerwindow/internal/wire"
)

// Options bounds one exploration.
type Options struct {
	// Scenario names the scripted stimulus (see scenario.go): "join-wave",
	// "leave-crash", "shift" or "split".
	Scenario string
	// N is the cluster size (3 or 4 are practical; the space is
	// exponential in the concurrency, not just N).
	N int
	// Seed drives node identifiers and every other simulator choice.
	Seed uint64
	// MaxDepth bounds the number of branch decisions per path; deeper
	// branch points become leaves (drained deterministically, then
	// audited).
	MaxDepth int
	// MaxDrops bounds explorer-injected message losses per path. Only
	// deliveries (sim.TagDeliver) can be dropped.
	MaxDrops int
	// Window is the reorder horizon: a tagged event is a candidate only
	// while its scheduled time is within Window of the earliest tagged
	// event (and never past the next untagged harness event).
	Window des.Time
	// Settle is how much virtual time a leaf drains deterministically
	// before the oracle audit, so depth truncation does not read as a
	// protocol error.
	Settle des.Time
	// Horizon bounds the virtual time in which branch points are
	// explored: once a path's clock passes it, the path becomes a leaf
	// even with depth budget left. Without it a path whose remaining
	// events are all forced (periodic timers re-arming forever) would
	// never terminate.
	Horizon des.Time
	// Mutation names a deliberately broken configuration (see
	// scenario.go) used to validate that the checker finds and replays
	// real violations. Empty means the honest protocol.
	Mutation string
	// Stop, when non-nil, is polled between re-executions; returning
	// true abandons the search (Result.Stats.Exhausted stays false).
	// Wall-clock budgets live in the caller so the package itself stays
	// deterministic.
	Stop func() bool
}

// withDefaults fills the zero fields.
func (o Options) withDefaults() Options {
	if o.Scenario == "" {
		o.Scenario = "join-wave"
	}
	if o.N == 0 {
		o.N = 3
	}
	if o.MaxDepth == 0 {
		o.MaxDepth = 6
	}
	if o.Window == 0 {
		if o.Scenario == "shift" {
			// Wide enough to pull the first shift-check timer into the
			// race window with the in-flight multicast deliveries.
			o.Window = 2500 * des.Millisecond
		} else {
			o.Window = 250 * des.Millisecond
		}
	}
	if o.Settle == 0 {
		o.Settle = 5 * des.Minute
	}
	if o.Horizon == 0 {
		o.Horizon = 30 * des.Second
	}
	return o
}

// Step is one recorded branch decision: fire (or drop) the event with
// the given engine sequence number. At/Owner/Kind are redundant with Seq
// — the re-execution is deterministic — but make schedule files
// human-readable and let replay detect divergence.
type Step struct {
	Seq   uint64   `json:"seq"`
	At    des.Time `json:"at"`
	Owner uint64   `json:"owner"`
	Kind  uint8    `json:"kind"`
	Drop  bool     `json:"drop,omitempty"`
}

// Violation is one discovered protocol error with the schedule that
// reaches it.
type Violation struct {
	// Kind is "invariant" (a core.Node.CheckInvariants failure or a
	// handler panic mid-schedule), "audit" (ground-truth peer-list
	// errors at a quiescent leaf) or "expiry" (a pointer the §4.6 sweep
	// should have expired is still present at the leaf).
	Kind string `json:"kind"`
	// Node is the address of the offending node.
	Node uint64 `json:"node"`
	// Detail is the human-readable diagnosis.
	Detail string `json:"detail"`
	// Schedule replays to this violation.
	Schedule Schedule `json:"schedule"`
}

func (v *Violation) Error() string {
	return fmt.Sprintf("model: %s violation at node %d after %d decisions: %s",
		v.Kind, v.Node, len(v.Schedule.Steps), v.Detail)
}

// Stats summarises one exploration.
type Stats struct {
	// Runs is the number of re-executions (one per explored prefix).
	Runs uint64
	// BranchPoints is how many frontiers were expanded.
	BranchPoints uint64
	// Leaves is how many complete schedules were drained and audited.
	Leaves uint64
	// Deduped counts frontiers skipped because an equal state digest was
	// already expanded with at least as much remaining budget.
	Deduped uint64
	// Commuted counts candidates pruned by the disjoint-owner commute
	// rule.
	Commuted uint64
	// DepthTruncated counts branch points turned into leaves by
	// MaxDepth.
	DepthTruncated uint64
	// Exhausted reports whether the bounded space was fully explored
	// (false when Stop fired or a violation ended the search early).
	Exhausted bool
}

// Result is the outcome of Check.
type Result struct {
	// Violation is the first violation found, or nil.
	Violation *Violation
	// Stats describes the exploration.
	Stats Stats
	// Err reports an internal failure (bad options, schedule
	// divergence); the protocol is not implicated.
	Err error
}

// Check explores the bounded schedule space of the scenario and returns
// the first violation, if any.
func Check(opts Options) Result {
	opts = opts.withDefaults()
	var st Stats
	// visited maps a frontier state digest to the (remaining depth,
	// remaining drops) budgets it was expanded with; a revisit is pruned
	// only when some earlier expansion dominates its budget in both
	// coordinates.
	visited := make(map[uint64][][2]int)
	stack := [][]Step{nil}
	for len(stack) > 0 {
		if opts.Stop != nil && opts.Stop() {
			return Result{Stats: st}
		}
		prefix := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		st.Runs++
		out, err := exec(opts, prefix, modeExplore, nil, &st)
		if err != nil {
			return Result{Stats: st, Err: err}
		}
		if out.violation != nil {
			out.violation.Schedule = makeSchedule(opts, out.violation.Schedule.Steps)
			return Result{Violation: out.violation, Stats: st}
		}
		if out.frontier == nil {
			st.Leaves++
			continue
		}
		f := out.frontier
		st.BranchPoints++
		remDepth := opts.MaxDepth - len(prefix)
		remDrops := opts.MaxDrops - f.dropsUsed
		dominated := false
		for _, v := range visited[f.digest] {
			if v[0] >= remDepth && v[1] >= remDrops {
				dominated = true
				break
			}
		}
		if dominated {
			st.Deduped++
			continue
		}
		visited[f.digest] = append(visited[f.digest], [2]int{remDepth, remDrops})
		// Push in reverse so the canonical first candidate is explored
		// first.
		for i := len(f.cands) - 1; i >= 0; i-- {
			child := make([]Step, len(prefix)+1)
			copy(child, prefix)
			child[len(prefix)] = f.cands[i]
			stack = append(stack, child)
		}
	}
	st.Exhausted = true
	return Result{Stats: st}
}

// ReplayResult is the outcome of Replay.
type ReplayResult struct {
	// Violation is the violation the schedule reproduces, or nil if the
	// replay ran clean (the seeded bug is fixed, or the schedule is for
	// a different build).
	Violation *Violation
	// Digest is the canonical state digest at the drained leaf (zero
	// when the replay dies earlier on an invariant violation); two
	// replays of the same schedule must agree bit for bit.
	Digest uint64
}

// Replay re-executes a recorded schedule: recorded decisions are applied
// at each branch point (matched by engine sequence number), forced steps
// are recomputed, and once the decisions are exhausted the run drains
// and audits exactly like an explored leaf. spans, when non-nil,
// receives the causal spans of the replay for cmd/pwtrace.
func Replay(sched Schedule, spans trace.SpanSink) (ReplayResult, error) {
	opts := sched.options().withDefaults()
	var st Stats
	out, err := exec(opts, sched.Steps, modeReplay, spans, &st)
	if err != nil {
		return ReplayResult{}, err
	}
	if out.violation != nil {
		out.violation.Schedule = makeSchedule(opts, out.violation.Schedule.Steps)
	}
	return ReplayResult{Violation: out.violation, Digest: out.leafDigest}, nil
}

type execMode int

const (
	modeExplore execMode = iota
	modeReplay
)

// frontier is an unexplored branch point: the filtered candidate
// decisions and the state digest used for dedup.
type frontier struct {
	digest    uint64
	cands     []Step
	dropsUsed int
}

type execOut struct {
	frontier   *frontier
	violation  *Violation
	leafDigest uint64
}

// cand pairs a candidate decision with its index into the engine's
// runnable slice.
type cand struct {
	step Step
	idx  int
}

// lastBranch remembers the most recent applied branch decision for the
// commute rule.
type lastBranch struct {
	step Step
	// candSeqs is the set of sequence numbers that were explorable
	// candidates at that branch point (post commute filter), i.e. the
	// siblings DFS actually tries.
	candSeqs map[uint64]bool
	// forcedSince is set when any forced step ran after the decision;
	// the commute rule then no longer applies (the forced step may
	// depend on it).
	forcedSince bool
}

// oneShot is the trivial chooser: the executor precomputes each
// decision and hands it over.
type oneShot struct{ d des.Decision }

func (o *oneShot) Choose(des.Time, []des.Choice) des.Decision { return o.d }

// exec re-executes the scenario under the decision prefix. In explore
// mode it stops at the first branch point past the prefix and returns
// the frontier; in replay mode (and past MaxDepth) branch points beyond
// the prefix become leaves. A nil frontier with a nil violation is a
// clean leaf.
func exec(opts Options, prefix []Step, mode execMode, spans trace.SpanSink, st *Stats) (execOut, error) {
	cl, err := buildScenario(opts, spans)
	if err != nil {
		return execOut{}, err
	}
	eng := cl.Engine
	shot := &oneShot{}
	eng.SetChooser(shot)

	applied := func(n int) []Step {
		out := make([]Step, n)
		copy(out, prefix[:n])
		return out
	}
	pos := 0
	dropsUsed := 0
	var last *lastBranch
	for {
		if eng.Now() > opts.Horizon && pos >= len(prefix) {
			break // past the exploration horizon; settle and audit
		}
		choices := eng.Runnable()
		if len(choices) == 0 {
			break // nothing left at all; drain is a no-op, still audit
		}
		cands, forced := policy(choices, dropsUsed, opts)
		if forced != nil {
			if v := applyStep(cl, shot, *forced); v != nil {
				v.Schedule.Steps = applied(pos)
				return execOut{violation: v}, nil
			}
			if last != nil {
				last.forcedSince = true
			}
			continue
		}
		// Branch point.
		if pos < len(prefix) {
			rec := prefix[pos]
			idx := -1
			for i, c := range choices {
				if c.Seq == rec.Seq {
					idx = i
					break
				}
			}
			if idx < 0 {
				return execOut{}, fmt.Errorf("model: schedule diverged: seq %d not runnable at decision %d", rec.Seq, pos)
			}
			if got := choices[idx]; got.Tag.Owner != rec.Owner || got.Tag.Kind != rec.Kind {
				return execOut{}, fmt.Errorf("model: schedule diverged: seq %d is owner=%d kind=%d, recorded owner=%d kind=%d",
					rec.Seq, got.Tag.Owner, got.Tag.Kind, rec.Owner, rec.Kind)
			}
			if rec.Drop {
				dropsUsed++
			}
			last = &lastBranch{step: rec, candSeqs: seqSet(cands)}
			if v := applyStep(cl, shot, des.Decision{Index: idx, Drop: rec.Drop}); v != nil {
				v.Schedule.Steps = applied(pos + 1)
				return execOut{violation: v}, nil
			}
			pos++
			continue
		}
		if mode == modeReplay {
			break
		}
		if len(prefix) >= opts.MaxDepth {
			st.DepthTruncated++
			break
		}
		// Frontier: filter by the commute rule and hand back to DFS.
		filtered := commuteFilter(cands, last, st)
		if len(filtered) == 0 {
			// Every candidate commutes with the previous decision: the
			// sibling branches cover all continuations from here.
			return execOut{frontier: &frontier{digest: digestState(cl), dropsUsed: dropsUsed}}, nil
		}
		steps := make([]Step, len(filtered))
		for i, c := range filtered {
			steps[i] = c.step
		}
		return execOut{frontier: &frontier{digest: digestState(cl), cands: steps, dropsUsed: dropsUsed}}, nil
	}

	// Leaf: drain deterministically, then audit against ground truth.
	eng.SetChooser(nil)
	target := eng.Now() + opts.Settle
	for {
		at, ok := eng.NextAt()
		if !ok || at > target {
			break
		}
		if v := applyStep(cl, nil, des.Decision{}); v != nil {
			v.Schedule.Steps = applied(pos)
			return execOut{violation: v}, nil
		}
	}
	cl.SyncTruth()
	if v := auditLeaf(cl, opts); v != nil {
		v.Schedule.Steps = applied(pos)
		return execOut{violation: v, leafDigest: digestState(cl)}, nil
	}
	return execOut{leafDigest: digestState(cl)}, nil
}

// policy classifies the runnable set: either a single forced decision
// (no choice worth exploring) or the candidate decisions of a branch
// point. Candidates are the tagged events scheduled within Window of the
// earliest tagged event and no later than the next untagged harness
// event — harness stimuli are script, not protocol, and are never
// reordered or jumped past. Deliveries additionally offer a drop branch
// while the drop budget lasts.
func policy(choices []des.Choice, dropsUsed int, opts Options) ([]cand, *des.Decision) {
	if choices[0].Tag == (des.EventTag{}) {
		return nil, &des.Decision{Index: 0}
	}
	bound := choices[0].At + opts.Window
	for _, c := range choices {
		if c.Tag == (des.EventTag{}) {
			if c.At < bound {
				bound = c.At
			}
			break
		}
	}
	var cands []cand
	for i, c := range choices {
		if c.At > bound {
			break
		}
		if c.Tag == (des.EventTag{}) {
			continue
		}
		s := Step{Seq: c.Seq, At: c.At, Owner: c.Tag.Owner, Kind: c.Tag.Kind}
		cands = append(cands, cand{step: s, idx: i})
		if c.Tag.Kind == sim.TagDeliver && dropsUsed < opts.MaxDrops {
			s.Drop = true
			cands = append(cands, cand{step: s, idx: i})
		}
	}
	if len(cands) == 1 {
		return nil, &des.Decision{Index: cands[0].idx}
	}
	return cands, nil
}

// commuteFilter drops candidates already covered by a sibling branch: if
// the previous decision fired event p and candidate c acts on a
// different node, was itself explorable at p's branch point, and is
// canonically earlier than p, then the sibling that fired c first
// reaches the same states (events at disjoint nodes mutate disjoint
// protocol state). Dropped-p and intervening forced steps disable the
// rule conservatively.
func commuteFilter(cands []cand, last *lastBranch, st *Stats) []cand {
	if last == nil || last.forcedSince || last.step.Drop {
		return cands
	}
	p := last.step
	out := cands[:0]
	for _, c := range cands {
		s := c.step
		if s.Owner != 0 && p.Owner != 0 && s.Owner != p.Owner &&
			last.candSeqs[s.Seq] && canonicallyBefore(s, p) {
			st.Commuted++
			continue
		}
		out = append(out, c)
	}
	return out
}

func canonicallyBefore(a, b Step) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.Seq < b.Seq
}

func seqSet(cands []cand) map[uint64]bool {
	m := make(map[uint64]bool, len(cands))
	for _, c := range cands {
		m[c.step.Seq] = true
	}
	return m
}

// applyStep fires one engine step (with the precomputed decision when a
// chooser is driving) and checks every node's protocol invariants, dead
// ones included (a stopped node must hold nothing), converting failures
// and handler panics into violations.
func applyStep(cl *sim.Cluster, shot *oneShot, d des.Decision) (v *Violation) {
	defer func() {
		if r := recover(); r != nil {
			v = &Violation{Kind: "invariant", Detail: fmt.Sprintf("panic during step: %v", r)}
		}
	}()
	if shot != nil {
		shot.d = d
	}
	cl.Engine.Step()
	for _, sn := range cl.Nodes() {
		if err := sn.Node.CheckInvariants(); err != nil {
			return &Violation{Kind: "invariant", Node: uint64(sn.Addr), Detail: err.Error()}
		}
	}
	return nil
}

// auditLeaf runs the ground-truth oracle over a drained leaf: every
// alive joined node's peer list must exactly cover its audience (no
// absent, no stale pointers), and no pointer may have outlived the §4.6
// expiry deadline.
func auditLeaf(cl *sim.Cluster, opts Options) *Violation {
	cfg := scenarioConfig(opts)
	for _, sn := range cl.Alive() {
		if !sn.Node.Joined() {
			continue
		}
		errs := cl.Audit(sn)
		if errs.Absent > 0 || errs.Stale > 0 {
			return &Violation{
				Kind: "audit", Node: uint64(sn.Addr),
				Detail: auditDetail(errs),
			}
		}
		if cfg.RefreshEnabled {
			if v := expiryCheck(sn, cfg.RefreshFloor); v != nil {
				return v
			}
		}
	}
	return nil
}

func auditDetail(e oracle.Errors) string {
	return fmt.Sprintf("peer-list audit: %d absent, %d stale (%d correct, %d level-mismatched)",
		e.Absent, e.Stale, e.Correct, e.LevelMismatch)
}

// expiryCheck mirrors the onRefreshTick expiry rule as an oracle: at a
// quiescent leaf no pointer may be unrefreshed past three times the
// node's lifetime estimate for its level (§4.6: "3·LT_m"), plus one
// refresh tick of slack (expiry only runs on ticks). The factor is the
// paper's, not read from the code under test.
func expiryCheck(sn *sim.SimNode, refreshFloor des.Time) *Violation {
	const expireMultiple = 3
	var v *Violation
	nowT := sn.Now()
	sn.Node.Peers().ForEach(func(p wire.Pointer, _, lastSeen des.Time) {
		if v != nil {
			return
		}
		lt := lifetimeEstimate(sn, int(p.Level))
		if lt <= 0 {
			return
		}
		deadline := des.Time(expireMultiple*float64(lt)) + refreshFloor
		if nowT-lastSeen > deadline {
			v = &Violation{
				Kind: "expiry", Node: uint64(sn.Addr),
				Detail: fmt.Sprintf("pointer %s unrefreshed for %v (deadline %v)", p.ID, nowT-lastSeen, deadline),
			}
		}
	})
	return v
}

// lifetimeEstimate mirrors core's estimate: per-level mean observed
// lifetime, falling back to the overall mean, needing at least three
// samples to act.
func lifetimeEstimate(sn *sim.SimNode, level int) des.Time {
	const minSamples = 3
	stats := sn.Node.LifetimeStats()
	if agg := stats.Level(level); agg.N() >= minSamples {
		return des.Time(agg.Mean())
	}
	if agg := stats.Overall(); agg.N() >= minSamples {
		return des.Time(agg.Mean())
	}
	return 0
}
