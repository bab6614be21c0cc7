// Package core implements the PeerWindow protocol itself: the peer list
// and its eigenstring-defined contents, the tree-based multicast that
// maintains it, ring-probing failure detection, the four-step joining
// process, autonomic level shifting, split-system handling, lazy top-node
// list maintenance, and the §4.6 refresh mechanism.
//
// A Node is a transport-agnostic state machine: it talks to the world
// through the Env interface (send a message, set a timer, read the
// clock), so the same code runs inside the deterministic discrete-event
// simulator that reproduces the paper's figures and inside the live
// goroutine transport the examples use.
package core

import (
	"fmt"

	"peerwindow/internal/des"
)

// Config holds the per-node protocol parameters. Zero value is unusable;
// start from DefaultConfig.
type Config struct {
	// TopListSize is t, the number of top-node pointers every node keeps
	// (§2: "commonly we set t = 8").
	TopListSize int

	// ProbeInterval is the period of the §4.1 ring heartbeat to the right
	// neighbour.
	ProbeInterval des.Time
	// ProbeTimeout is how long to wait for a heartbeat ack before
	// declaring the neighbour failed.
	ProbeTimeout des.Time

	// AckTimeout is how long a multicast step waits for its ack before
	// retrying (§4.2).
	AckTimeout des.Time
	// RetryAttempts is the number of attempts per multicast target before
	// the pointer is dropped as stale and the message redirected (§4.2:
	// "three continuous attempts").
	RetryAttempts int

	// ForwardDelay models the per-hop processing cost of a multicast
	// step: "every medium node delays the message for 1 second that is
	// spent on receiving, calculating and sending" (§5.1).
	ForwardDelay des.Time

	// ThresholdBits is W, the node's self-set bandwidth budget for node
	// collection in bit/s (§2 autonomy). The node shifts level to keep
	// its measured input cost under it.
	ThresholdBits float64
	// MeterWindow is the sliding window over which the node measures its
	// own bandwidth cost (the "dynamically measured" W of §4.3).
	MeterWindow des.Time
	// ShiftCheckInterval is how often the node re-evaluates its level.
	ShiftCheckInterval des.Time

	// MaxLevel bounds how far down a node may shift.
	MaxLevel int

	// RefreshEnabled turns the §4.6 anti-entropy mechanism on.
	RefreshEnabled bool
	// RefreshFloor is the minimum interval between refresh multicasts,
	// guarding the start-up phase when no lifetime samples exist yet.
	RefreshFloor des.Time

	// ReconcileDelay, when positive, schedules one anti-entropy pass
	// that long after a successful join: the node re-downloads its peer
	// list from a stronger node and reconciles. This closes the join
	// window — events that fired after the join snapshot was taken but
	// before the node's own join multicast made it visible to the
	// audience are otherwise missed. (The paper's simulation methodology
	// hands joiners the canonical centralized list, which has no such
	// window; a message-level implementation needs this pass. See
	// DESIGN.md.)
	ReconcileDelay des.Time

	// WarmUp, when true, makes a joining node first enter warmUpLevels
	// below its estimated level (small peer list), then raise its level in
	// the background (§4.3 "warm-up").
	WarmUp bool
}

// Fixed protocol factors: the paper's values, and warm-up's depth.
const (
	// shiftDownFactor: measured cost above ThresholdBits shifts the node
	// one level down (smaller peer list). shiftUpFactor: cost below
	// ThresholdBits*shiftUpFactor shifts it up (larger peer list). The
	// paper's example uses 1 and 0.5: "once the bandwidth cost drops to a
	// value below 2.5kbps [half of 5kbps], the node will automatically
	// shift the level to l−1".
	shiftDownFactor = 1.0
	shiftUpFactor   = 0.5
	// refreshMultiple is the factor on the measured per-level mean
	// lifetime LT_l between self-refresh multicasts (§4.6: 2).
	refreshMultiple = 2
	// expireMultiple is the factor on LT_m after which an unrefreshed
	// m-level pointer is dropped without probing (§4.6: 3).
	expireMultiple = 3
	// warmUpLevels is how many levels below the estimate a warming-up
	// node starts at.
	warmUpLevels = 2
)

// DefaultConfig returns the paper's parameters where given, and sensible
// engineering choices where the paper is silent.
func DefaultConfig() Config {
	return Config{
		TopListSize:        8,
		ProbeInterval:      30 * des.Second,
		ProbeTimeout:       5 * des.Second,
		AckTimeout:         3 * des.Second,
		RetryAttempts:      3,
		ForwardDelay:       1 * des.Second,
		ThresholdBits:      5000,
		MeterWindow:        2 * des.Minute,
		ShiftCheckInterval: 30 * des.Second,
		MaxLevel:           30,
		RefreshEnabled:     true,
		RefreshFloor:       10 * des.Minute,
		ReconcileDelay:     60 * des.Second,
		WarmUp:             false,
	}
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.TopListSize <= 0:
		return fmt.Errorf("core: TopListSize = %d", c.TopListSize)
	case c.ProbeInterval <= 0 || c.ProbeTimeout <= 0:
		return fmt.Errorf("core: probe timing must be positive")
	case c.AckTimeout <= 0:
		return fmt.Errorf("core: AckTimeout = %v", c.AckTimeout)
	case c.RetryAttempts <= 0:
		return fmt.Errorf("core: RetryAttempts = %d", c.RetryAttempts)
	case c.ForwardDelay < 0:
		return fmt.Errorf("core: ForwardDelay = %v", c.ForwardDelay)
	case c.ThresholdBits <= 0:
		return fmt.Errorf("core: ThresholdBits = %g", c.ThresholdBits)
	case c.MeterWindow <= 0 || c.ShiftCheckInterval <= 0:
		return fmt.Errorf("core: meter timing must be positive")
	case c.MaxLevel < 0 || c.MaxLevel > 127:
		return fmt.Errorf("core: MaxLevel = %d", c.MaxLevel)
	case c.RefreshEnabled && c.RefreshFloor <= 0:
		return fmt.Errorf("core: RefreshFloor = %v", c.RefreshFloor)
	case c.ReconcileDelay < 0:
		return fmt.Errorf("core: ReconcileDelay = %v", c.ReconcileDelay)
	}
	return nil
}
