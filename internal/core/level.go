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
// done is called exactly once, with nil on success. With cfg.WarmUp the
// node first enters warmUpLevels below the estimate and raises its level
// in the background afterwards.
func (n *Node) Join(bootstrap wire.Pointer, done func(error)) {
	if n.joined || n.stopped {
		panic("core: Join on a joined or stopped node")
	}
	if bootstrap.Addr == n.self.Addr || bootstrap.ID == n.self.ID {
		panic("core: node cannot bootstrap through itself")
	}
	if done == nil {
		done = func(error) {}
	}
	// Step 1: discover top nodes through the bootstrap.
	msg := wire.Message{Type: wire.MsgTopListReq, To: bootstrap.Addr}
	n.sendReliable(msg, n.cfg.RetryAttempts,
		func(resp wire.Message) {
			tops := resp.Pointers
			if len(tops) == 0 {
				// The bootstrap did not know better tops; it may itself
				// be a top node of a young overlay.
				tops = []wire.Pointer{bootstrap}
			}
			n.joinStep2(tops, done, true)
		},
		func() { done(ErrJoinFailed) },
	)
}

// joinStep2 queries top-node candidates for the level-estimation inputs,
// walking the list on failure. mayRefer is false after a §4.4 cross-part
// referral, so a join is referred at most once.
func (n *Node) joinStep2(tops []wire.Pointer, done func(error), mayRefer bool) {
	if n.stopped || len(tops) == 0 {
		done(ErrJoinFailed)
		return
	}
	top := tops[0]
	msg := wire.Message{Type: wire.MsgJoinQuery, To: top.Addr}
	n.sendReliable(msg, n.cfg.RetryAttempts,
		func(resp wire.Message) {
			z := resp.Sender
			// §4.4: if the answering top node belongs to a different
			// part (its eigenstring does not contain our identifier), it
			// cannot serve our join — ask it for top nodes of our own
			// part instead.
			if mayRefer && z.Level > 0 &&
				z.ID.Prefix(int(z.Level)) != n.self.ID.Prefix(int(z.Level)) {
				n.crossPartJoin(z, done)
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
			n.joinStep3(z, done)
		},
		func() { n.joinStep2(tops[1:], done, mayRefer) },
	)
}

// joinStep3 downloads the peer list slice matching our eigenstring and
// the top-node list from the answering top node.
func (n *Node) joinStep3(top wire.Pointer, done func(error)) {
	if n.stopped {
		done(ErrJoinFailed)
		return
	}
	msg := wire.Message{Type: wire.MsgPeerListReq, To: top.Addr, Sender: n.self}
	n.sendReliable(msg, n.cfg.RetryAttempts,
		func(resp wire.Message) {
			n.applyPointers(resp.Pointers)
			// Fetch the top-node list as well.
			tl := wire.Message{Type: wire.MsgTopListReq, To: top.Addr}
			n.sendReliable(tl, n.cfg.RetryAttempts,
				func(resp wire.Message) {
					n.mergeTopPointers(resp.Pointers)
					if len(n.topList) == 0 {
						n.mergeTopPointers([]wire.Pointer{top})
					}
					n.joinStep4(top, done)
				},
				func() { done(ErrJoinFailed) },
			)
		},
		func() { done(ErrJoinFailed) },
	)
}

// joinStep4 announces the join through the top node and goes live.
func (n *Node) joinStep4(top wire.Pointer, done func(error)) {
	if n.stopped {
		done(ErrJoinFailed)
		return
	}
	// Seed the announcement sequence from virtual time so a rejoin under
	// the same identifier can never be deduplicated as stale.
	if s := uint64(n.env.Now()); s > n.seq {
		n.seq = s
	}
	n.seq++
	ev := wire.Event{Kind: wire.EventJoin, Subject: n.self, Seq: n.seq}
	msg := wire.Message{Type: wire.MsgReport, To: top.Addr, Event: ev, Trace: n.newTrace()}
	n.sendReliable(msg, n.cfg.RetryAttempts,
		func(wire.Message) {
			n.joined = true
			n.joinedAt = n.env.Now()
			n.joinTop = top
			n.startTimers()
			if n.warmTarget >= 0 && n.warmTarget < n.Level() {
				n.warmUpTimer.arm(n.cfg.ShiftCheckInterval)
			}
			if n.cfg.ReconcileDelay > 0 {
				n.reconcileTimer.arm(n.cfg.ReconcileDelay)
			}
			done(nil)
		},
		func() { done(ErrJoinFailed) },
	)
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
	if n.stopped || !n.joined {
		return
	}
	n.m.reconcileRuns.Inc()
	if n.joinTop.Addr != 0 {
		n.reconcileFrom(n.joinTop, n.reconcileFallback)
		return
	}
	n.reconcileFallback()
}

// reconcileFallback is the donor choice when the join top is unknown or
// unreachable: a stronger peer, or a top-list entry.
func (n *Node) reconcileFallback() {
	if n.stopped || !n.joined {
		return
	}
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
	n.reconcileFrom(donor, nil)
}

// reconcileFrom runs the download-and-merge against one donor. onFail,
// when non-nil, is invoked if the donor never answers; a nil onFail makes
// the pass best-effort (a failed reconcile just leaves the window open).
func (n *Node) reconcileFrom(donor wire.Pointer, onFail func()) {
	msg := wire.Message{Type: wire.MsgPeerListReq, To: donor.Addr, Sender: n.self}
	n.sendReliable(msg, n.cfg.RetryAttempts,
		func(resp wire.Message) {
			if n.stopped {
				return
			}
			batch := n.applyPointers(resp.Pointers)
			// Entries the donor lacks and that we have not seen since our
			// own join completed are stale copies from the join snapshot.
			// Pointers refreshed by a live event after joinedAt are kept
			// even when the donor lacks them: the donor's own join window
			// may still be open, and dropping a live member on its word
			// would trade our error for a copy of its. Every held ID is
			// inside our eigenstring and not our own, so the donor has it
			// exactly when the batch does; both run in ID order, so one
			// merge walk finds it.
			var drop []nodeid.ID
			i := 0
			n.peers.walk(0, n.peers.Len(), func(e *entry, s *stamp) {
				for i < len(batch) && batch[i].ID.Less(e.id) {
					i++
				}
				inResp := i < len(batch) && batch[i].ID == e.id
				if !inResp && s.lastSeen <= n.joinedAt && e.id != donor.ID {
					drop = append(drop, e.id)
				}
			})
			for _, id := range drop {
				if _, had := n.removePeer(id, RemoveStale); had {
					n.m.reconcileDrops.Inc()
				}
			}
		},
		onFail,
	)
}

// warmUpStep raises the level one notch toward the warm-up target in the
// background (§4.3: "after completing the background downloading, it
// raises its level").
func (n *Node) warmUpStep() {
	if n.stopped || !n.joined || n.warmTarget < 0 {
		return
	}
	if n.Level() <= n.warmTarget {
		n.warmTarget = -1
		return
	}
	n.raiseLevel(func(ok bool) {
		if !ok {
			n.warmTarget = -1 // cannot raise further; settle here
			return
		}
		n.warmUpTimer.arm(n.cfg.ShiftCheckInterval)
	})
}

// onShiftCheck is the §2 autonomy loop: compare the measured input cost
// against the budget and shift the level accordingly.
func (n *Node) onShiftCheck() {
	if n.stopped || !n.joined {
		return
	}
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
		n.raiseLevel(nil)
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
// pointers from stronger nodes and then report the event"). done, if not
// nil, receives whether the raise went through.
func (n *Node) raiseLevel(done func(ok bool)) {
	if n.Level() == 0 {
		if done != nil {
			done(false)
		}
		return
	}
	newLevel := n.Level() - 1
	// Any peer at a level <= newLevel is stronger than our new self and
	// covers the expanded region; fall back to the top-node list.
	donor, ok := n.peers.Strongest()
	if !ok || int(donor.Level) > newLevel {
		if len(n.topList) > 0 {
			donor = n.topList[0]
			if int(donor.Level) > newLevel {
				// Even the top of our part is weaker than our target: a
				// split system caps how far we can rise (§4.4).
				if done != nil {
					done(false)
				}
				return
			}
		} else {
			if done != nil {
				done(false)
			}
			return
		}
	}
	req := n.self
	req.Level = uint8(newLevel)
	msg := wire.Message{Type: wire.MsgPeerListReq, To: donor.Addr, Sender: req}
	n.sendReliable(msg, n.cfg.RetryAttempts,
		func(resp wire.Message) {
			if n.stopped {
				return
			}
			old := n.Level()
			if old != newLevel+1 {
				// A concurrent shift beat us; drop this raise.
				if done != nil {
					done(false)
				}
				return
			}
			n.lastShift = n.env.Now()
			n.setLevel(newLevel)
			n.applyPointers(resp.Pointers)
			n.m.shiftsUp.Inc()
			n.moment(trace.SpanShiftUp, 0, newLevel)
			n.announce(wire.EventLevelShift)
			if done != nil {
				done(true)
			}
		},
		func() {
			// The donor is unreachable; if it came from the top-node
			// list, drop it so the next attempt tries someone else.
			n.topList = dropID(n.topList, donor.ID)
			if done != nil {
				done(false)
			}
		},
	)
}
