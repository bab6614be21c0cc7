package core

import (
	"errors"
	"math"

	"peerwindow/internal/nodeid"
	"peerwindow/internal/trace"
	"peerwindow/internal/wire"
)

// ErrJoinFailed reports that the joining process could not complete (the
// bootstrap node or every discovered top node was unreachable).
var ErrJoinFailed = errors.New("core: join failed")

// This file implements §4.3: the four-step joining process, the level
// estimation formula, warm-up, and runtime level shifting, plus the §2
// autonomy loop that keeps the measured bandwidth cost inside the node's
// self-set budget.

// EstimateLevel computes the joining node's starting level from the top
// node's level lT and measured cost wT and the local budget wX:
//
//	lX = ceil(lT + log2(wT / wX))
//
// A zero wT (a fresh, quiet system) yields lT. The result is clamped to
// [lT, maxLevel]: a joining node cannot start stronger than the top node
// that answers it.
func EstimateLevel(lT int, wT, wX float64, maxLevel int) int {
	l := lT
	if wT > 0 && wX > 0 {
		l = int(math.Ceil(float64(lT) + math.Log2(wT/wX)))
	}
	if l < lT {
		l = lT
	}
	if l > maxLevel {
		l = maxLevel
	}
	return l
}

// Join runs the §4.3 joining process against a bootstrap node already in
// the system:
//
//  1. find a top node (ask the bootstrap for its top-node list),
//  2. determine the level (query the top node's level and measured cost),
//  3. download the peer list and top-node list,
//  4. multicast the joining event around the audience set (via a report
//     to the top node).
//
// done is called once, with nil on success, when the join ends, unless
// the node is stopped first: Stop drops the join in progress, and done
// is never called. With cfg.WarmUp the node first enters warmUpLevels
// below the estimate and raises its level in the background afterwards.
// Each step is a reliable send whose rules (sendRules) take the next.
func (n *Node) Join(bootstrap wire.Pointer, done func(error)) {
	n.mustBeIdle("Join")
	if bootstrap.Addr == n.self.Addr || bootstrap.ID == n.self.ID {
		panic("core: node cannot bootstrap through itself")
	}
	if done == nil {
		done = func(error) {}
	}
	n.phase, n.joinDone = phaseJoining, done
	// Step 1: discover top nodes through the bootstrap.
	n.arm(n.track(sendJoinTops, wire.Message{Type: wire.MsgTopListReq, To: bootstrap.Addr}, bootstrap))
}

// endJoin ends the join in progress and hands err to its caller; a
// failed join leaves the node idle.
func (n *Node) endJoin(err error) {
	done := n.joinDone
	n.joinDone = nil
	if err != nil {
		n.phase = phaseIdle
	}
	done(err)
}

// joinFailed is the failure rule of every join step but the top-node
// walk: the join fails.
func (n *Node) joinFailed(*pendingSend) { n.endJoin(ErrJoinFailed) }

func (n *Node) joinTopsAnswered(p *pendingSend, resp wire.Message) {
	tops := resp.Pointers
	if len(tops) == 0 {
		// The bootstrap did not know better tops; it may itself be a top
		// node of a young overlay.
		tops = []wire.Pointer{p.target}
	}
	n.joinStep2(tops, false)
}

// joinStep2 queries top-node candidates for the level-estimation inputs,
// walking the list on failure (joinQueryFailed). referred is set after a
// §4.4 cross-part referral, so a join is referred at most once.
func (n *Node) joinStep2(tops []wire.Pointer, referred bool) {
	if len(tops) == 0 {
		n.endJoin(ErrJoinFailed)
		return
	}
	p := n.track(sendJoinQuery, wire.Message{Type: wire.MsgJoinQuery, To: tops[0].Addr}, wire.Pointer{})
	p.cands, p.once = tops, referred
	n.arm(p)
}

func (n *Node) joinQueryFailed(p *pendingSend) { n.joinStep2(p.cands[1:], p.once) }

func (n *Node) joinQueryAnswered(p *pendingSend, resp wire.Message) {
	z := resp.Sender
	// §4.4: if the answering top node belongs to a different part (its
	// eigenstring does not contain our identifier), it cannot serve our
	// join — ask it for top nodes of our own part instead.
	if !p.once && z.Level > 0 &&
		z.ID.Prefix(int(z.Level)) != n.self.ID.Prefix(int(z.Level)) {
		n.crossPartJoin(z)
		return
	}
	lT := int(z.Level)
	wT := float64(resp.Cost)
	target := EstimateLevel(lT, wT, n.cfg.ThresholdBits, n.cfg.MaxLevel)
	start := target
	if n.cfg.WarmUp {
		start = target + warmUpLevels
		if start > n.cfg.MaxLevel {
			start = n.cfg.MaxLevel
		}
		if start > target {
			n.warmTarget = target
		}
	}
	n.setLevel(start)
	// Step 3: download the peer list slice matching our eigenstring, then
	// the top-node list, from the answering top node.
	n.arm(n.track(sendJoinPeers, wire.Message{Type: wire.MsgPeerListReq, To: z.Addr, Sender: n.self}, z))
}

func (n *Node) joinPeersAnswered(p *pendingSend, resp wire.Message) {
	n.applyPointers(resp.Pointers)
	n.arm(n.track(sendJoinTopList, wire.Message{Type: wire.MsgTopListReq, To: p.target.Addr}, p.target))
}

func (n *Node) joinTopListAnswered(p *pendingSend, resp wire.Message) {
	top := p.target
	n.mergeTopPointers(resp.Pointers)
	if len(n.topList) == 0 {
		n.mergeTopPointers([]wire.Pointer{top})
	}
	// Step 4: announce the join through the top node. Seed the
	// announcement sequence from virtual time so a rejoin under the same
	// identifier can never be deduplicated as stale.
	if s := uint64(n.env.Now()); s > n.seq {
		n.seq = s
	}
	n.seq++
	ev := wire.Event{Kind: wire.EventJoin, Subject: n.self, Seq: n.seq}
	n.arm(n.track(sendJoinReport, wire.Message{Type: wire.MsgReport, To: top.Addr, Event: ev, Trace: n.newTrace()}, top))
}

func (n *Node) joinReportAnswered(p *pendingSend, _ wire.Message) {
	n.joinedAt = n.env.Now()
	n.joinTop = p.target
	n.setJoined()
	if n.warmTarget >= 0 && n.warmTarget < n.Level() {
		n.warmUpTimer.arm(n.cfg.ShiftCheckInterval)
	}
	if n.cfg.ReconcileDelay > 0 {
		n.reconcileTimer.arm(n.cfg.ReconcileDelay)
	}
	n.endJoin(nil)
}

// reconcile performs one anti-entropy pass: re-download the peer list
// for our eigenstring and fix both error kinds — upsert what we miss,
// drop what the donor no longer has. It runs once, ReconcileDelay after a
// successful join, to close the join window (see Config.ReconcileDelay).
//
// The donor is the top node that served our join snapshot: its list is
// the baseline our join window is measured against, so pulling from it
// covers every event it has applied since. An arbitrary equal-level peer
// would not do — it may itself be a younger joiner whose own join window
// is still open, and a pull from it teaches us nothing it missed too.
// Only when the join top is gone do we fall back to the strongest peer
// or the top-node list.
func (n *Node) reconcile() {
	n.m.reconcileRuns.Inc()
	if n.joinTop.Addr != 0 {
		n.reconcileFrom(n.joinTop, false)
		return
	}
	n.reconcileFallback()
}

// reconcileFallback is the donor choice when the join top is unknown or
// unreachable: a stronger peer, or a top-list entry.
func (n *Node) reconcileFallback() {
	donor, ok := n.peers.Strongest()
	if !ok || int(donor.Level) > n.Level() {
		if len(n.topList) == 0 {
			return
		}
		donor = n.topList[0]
	}
	if donor.ID == n.joinTop.ID {
		return // already tried and failed; leave the window open
	}
	n.reconcileFrom(donor, true)
}

// reconcileFrom runs the download-and-merge against one donor. If the
// join top never answers, reconcileFailed falls back; if the last donor
// never answers, the window stays open.
func (n *Node) reconcileFrom(donor wire.Pointer, last bool) {
	p := n.track(sendReconcile, wire.Message{Type: wire.MsgPeerListReq, To: donor.Addr, Sender: n.self}, donor)
	p.once = last
	n.arm(p)
}

func (n *Node) reconcileFailed(p *pendingSend) {
	if !p.once {
		n.reconcileFallback()
	}
}

func (n *Node) reconcileAnswered(p *pendingSend, resp wire.Message) {
	batch := n.applyPointers(resp.Pointers)
	// Entries the donor lacks and that we have not seen since our own
	// join completed are stale copies from the join snapshot. Pointers
	// refreshed by a live event after joinedAt are kept even when the
	// donor lacks them: the donor's own join window may still be open,
	// and dropping a live member on its word would trade our error for a
	// copy of its. Every held ID is inside our eigenstring and not our
	// own, so the donor has it exactly when the batch does; both run in
	// ID order, so one merge walk finds it.
	var drop []nodeid.ID
	i := 0
	n.peers.walk(0, n.peers.Len(), func(e *entry, s *stamp) {
		for i < len(batch) && batch[i].ID.Less(e.id) {
			i++
		}
		inResp := i < len(batch) && batch[i].ID == e.id
		if !inResp && s.lastSeen <= n.joinedAt && e.id != p.target.ID {
			drop = append(drop, e.id)
		}
	})
	for _, id := range drop {
		if _, had := n.removePeer(id, RemoveStale); had {
			n.m.reconcileDrops.Inc()
		}
	}
}

// warmUpStep raises the level one notch toward the warm-up target in the
// background (§4.3: "after completing the background downloading, it
// raises its level"). Its slot is armed only while the target is set.
func (n *Node) warmUpStep() {
	if n.Level() <= n.warmTarget {
		n.warmTarget = -1
		return
	}
	if !n.raiseLevel(sendWarmRaise) {
		n.warmTarget = -1 // cannot raise further; settle here
	}
}

// onShiftCheck is the §2 autonomy loop: compare the measured input cost
// against the budget and shift the level accordingly.
func (n *Node) onShiftCheck() {
	n.shiftTimer.arm(n.cfg.ShiftCheckInterval)
	n.pruneDedup()
	if n.warmTarget >= 0 {
		return // let warm-up finish first
	}
	if n.env.Now()-n.lastShift < n.cfg.MeterWindow {
		return // meter has not converged at the current level yet
	}
	w := n.InputRate()
	budget := n.cfg.ThresholdBits
	switch {
	case w > budget*shiftDownFactor && n.Level() < n.cfg.MaxLevel &&
		n.peers.Len() >= 2:
		// With fewer than two peers a lower level cannot reduce cost —
		// it would only maroon the node in an empty region.
		n.lowerLevel()
	case w < budget*shiftUpFactor && n.Level() > 0:
		n.raiseLevel(sendRaise)
	}
}

// lowerLevel moves one level down (longer eigenstring, smaller peer
// list): shed the out-of-scope pointers and announce the shift.
func (n *Node) lowerLevel() {
	old := n.Level()
	wasTop := n.isTopNode()
	n.lastShift = n.env.Now()
	n.setLevel(old + 1)
	dropped := n.peers.DropOutsidePrefix(n.eigen)
	if wasTop {
		// A top node deepening its level is a split deepening: the shed
		// pointers are the sibling part, and §4.4 wants us to remember t
		// of its top nodes.
		n.captureSplitPointers(dropped, n.eigen)
	}
	for _, e := range dropped {
		n.evicted(e.ptr, RemoveShift)
	}
	n.m.shiftsDown.Inc()
	n.moment(trace.SpanShiftDown, 0, len(dropped))
	n.announce(wire.EventLevelShift)
}

// raiseLevel moves one level up (shorter eigenstring, larger peer list):
// first download the newly in-scope pointers from a stronger node, then
// switch and announce (§4.3: "it should first download those required
// pointers from stronger nodes and then report the event"). kind is
// sendRaise or, for a warm-up step, sendWarmRaise. It reports whether
// the download went out.
func (n *Node) raiseLevel(kind sendKind) bool {
	if n.Level() == 0 {
		return false
	}
	newLevel := n.Level() - 1
	// Any peer at a level <= newLevel is stronger than our new self and
	// covers the expanded region; fall back to the top-node list. Even
	// the top of our part may be weaker than our target: a split system
	// caps how far we can rise (§4.4).
	donor, ok := n.peers.Strongest()
	if !ok || int(donor.Level) > newLevel {
		if len(n.topList) == 0 || int(n.topList[0].Level) > newLevel {
			return false
		}
		donor = n.topList[0]
	}
	req := n.self
	req.Level = uint8(newLevel)
	n.arm(n.track(kind, wire.Message{Type: wire.MsgPeerListReq, To: donor.Addr, Sender: req}, donor))
	return true
}

// raised applies a raise's download: it switches to the level the
// request named and announces, unless a concurrent shift beat us.
func (n *Node) raised(p *pendingSend, resp wire.Message) {
	newLevel := int(p.msg.Sender.Level)
	ok := n.Level() == newLevel+1
	if ok {
		n.lastShift = n.env.Now()
		n.setLevel(newLevel)
		n.applyPointers(resp.Pointers)
		n.m.shiftsUp.Inc()
		n.moment(trace.SpanShiftUp, 0, newLevel)
		n.announce(wire.EventLevelShift)
	}
	n.warmed(p, ok)
}

// raiseFailed drops the unreachable donor: if it came from the top-node
// list, the next attempt tries someone else.
func (n *Node) raiseFailed(p *pendingSend) {
	n.topList = dropID(n.topList, p.target.ID)
	n.warmed(p, false)
}

// warmed ends a warm-up raise: the next step if it went through, or
// settle here.
func (n *Node) warmed(p *pendingSend, ok bool) {
	switch {
	case p.kind != sendWarmRaise:
	case ok:
		n.warmUpTimer.arm(n.cfg.ShiftCheckInterval)
	default:
		n.warmTarget = -1
	}
}
