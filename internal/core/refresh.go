package core

import (
	"peerwindow/internal/des"
	"peerwindow/internal/nodeid"
	"peerwindow/internal/trace"
	"peerwindow/internal/wire"
)

// This file implements the §4.6 accuracy-improvement mechanism. Multicast
// over an asynchronous network is never perfectly reliable, so peer lists
// accumulate two error kinds: absent pointers and stale pointers. Every
// node measures the lifetimes of departed peers per level (LT_i); an
// l-level node re-multicasts its own state every refreshMultiple·LT_l,
// and an m-level pointer unrefreshed for expireMultiple·LT_m is dropped
// without probing. In practice most nodes die before their refresh comes
// due — exactly as the paper observes.

// lifetimeEstimate returns the measured mean lifetime for a level,
// falling back to the all-levels mean, or 0 when there is not enough
// data to act on.
func (n *Node) lifetimeEstimate(level int) des.Time {
	const minSamples = 3
	if agg := n.lifetimes.Level(level); agg.N() >= minSamples {
		return des.Time(agg.Mean())
	}
	if agg := n.lifetimes.Overall(); agg.N() >= minSamples {
		return des.Time(agg.Mean())
	}
	return 0
}

// onRefreshTick runs the periodic §4.6 sweep: expire unrefreshed
// pointers, and re-announce ourselves when our refresh period has come
// due.
func (n *Node) onRefreshTick() {
	n.refreshTimer.arm(n.cfg.RefreshFloor)
	now := n.env.Now()

	// Expiry: collect first (the walk forbids mutation), then remove. LT
	// cannot change during the sweep, so each level's deadline is worked
	// out once, at its first pointer; 0 means no estimate yet.
	var deadline [nodeid.Bits + 1]des.Time
	var known [nodeid.Bits + 1]bool
	var expired []nodeid.ID
	n.peers.walk(0, n.peers.Len(), func(e *entry, s *stamp) {
		if !known[e.level] {
			known[e.level] = true
			if lt := n.lifetimeEstimate(int(e.level)); lt > 0 {
				deadline[e.level] = des.Time(expireMultiple * float64(lt))
			}
		}
		if d := deadline[e.level]; d > 0 && now-s.lastSeen > d {
			expired = append(expired, e.id)
		}
	})
	for _, id := range expired {
		if e, ok := n.removePeer(id, RemoveExpired); ok {
			n.m.refreshExpired.Inc()
			n.moment(trace.SpanExpire, e.ptr.Addr, 0)
		}
	}

	// Self refresh: every refreshMultiple·LT_l for our own level l.
	lt := n.lifetimeEstimate(n.Level())
	if lt <= 0 {
		return
	}
	period := des.Time(refreshMultiple * float64(lt))
	if period < n.cfg.RefreshFloor {
		period = n.cfg.RefreshFloor
	}
	if now-n.lastRefresh >= period {
		n.lastRefresh = now
		n.m.refreshSelf.Inc()
		n.moment(trace.SpanRefresh, 0, 0)
		n.announce(wire.EventRefresh)
	}
}
