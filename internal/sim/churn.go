package sim

import (
	"fmt"
	"math"

	"peerwindow/internal/core"
	"peerwindow/internal/des"
	"peerwindow/internal/nodeid"
	"peerwindow/internal/oracle"
	"peerwindow/internal/wire"
	"peerwindow/internal/workload"
	"peerwindow/internal/xrand"
)

// ChurnConfig drives the §5.1 population dynamics: Poisson arrivals at
// the stationary rate (population / mean lifetime) and departures after
// each node's sampled lifetime.
type ChurnConfig struct {
	// Workload supplies lifetimes, bandwidths and thresholds.
	Workload workload.Config
	// TargetPopulation sets the stationary population the arrival rate
	// maintains.
	TargetPopulation int
	// CrashFraction is the share of departures that crash silently and
	// must be detected by ring probing; the rest announce their leave.
	CrashFraction float64
}

// Validate reports whether the churn configuration is usable.
func (cc ChurnConfig) Validate() error {
	if err := cc.Workload.Validate(); err != nil {
		return err
	}
	if cc.TargetPopulation <= 0 {
		return fmt.Errorf("sim: TargetPopulation = %d", cc.TargetPopulation)
	}
	if cc.CrashFraction < 0 || cc.CrashFraction > 1 {
		return fmt.Errorf("sim: CrashFraction = %g", cc.CrashFraction)
	}
	return nil
}

// Churn runs the arrival/departure process on a cluster.
type Churn struct {
	c   *Cluster
	cfg ChurnConfig

	stopped bool
	arrival des.Handle

	// Counters for the harness.
	JoinsStarted uint64
	JoinsOK      uint64
	JoinsFailed  uint64
	Crashes      uint64
	Leaves       uint64
}

// NewChurn attaches a churn process to a cluster; call Start to begin.
func NewChurn(c *Cluster, cfg ChurnConfig) *Churn {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Churn{c: c, cfg: cfg}
}

// Start schedules the first arrival and arms departures for every node
// currently alive (their lifetimes are sampled now).
func (ch *Churn) Start() {
	for _, sn := range ch.c.Alive() {
		ch.scheduleDeparture(sn, ch.cfg.Workload.SampleLifetime(ch.c.rng))
	}
	ch.scheduleArrival()
}

// Stop halts the process; already scheduled departures still fire. The
// pending arrival event is cancelled, not just flagged, so the engine's
// queue can actually drain once the departures are done — quiescence
// detection (the model checker, RunUntilIdle tests) sees no phantom
// arrival timer.
func (ch *Churn) Stop() {
	ch.stopped = true
	ch.arrival.Cancel()
}

func (ch *Churn) scheduleArrival() {
	if ch.stopped {
		return
	}
	gap := ch.cfg.Workload.ArrivalInterval(ch.c.rng, ch.cfg.TargetPopulation)
	ch.arrival = ch.c.Engine.After(gap, ch.arrive)
}

// arrive creates a node with a sampled profile and joins it through a
// random member.
func (ch *Churn) arrive() {
	if ch.stopped {
		return
	}
	defer ch.scheduleArrival()
	profile := ch.cfg.Workload.SampleProfile(ch.c.rng)
	sn := ch.c.AddNode(profile.Threshold)
	boot := ch.c.RandomJoined(sn)
	if boot == nil {
		ch.c.Bootstrap(sn)
		ch.scheduleDeparture(sn, profile.Lifetime)
		return
	}
	ch.JoinsStarted++
	sn.Node.Join(boot.Node.Self(), func(err error) {
		if err != nil || !sn.alive {
			ch.JoinsFailed++
			ch.c.Kill(sn)
			return
		}
		ch.JoinsOK++
		ch.c.Truth.Join(sn.Node.Self())
	})
	ch.scheduleDeparture(sn, profile.Lifetime)
}

// scheduleDeparture arms the node's death; a CrashFraction of deaths are
// silent.
func (ch *Churn) scheduleDeparture(sn *SimNode, life des.Time) {
	ch.c.Engine.After(life, func() {
		if !sn.alive {
			return
		}
		if ch.c.rng.Float64() < ch.cfg.CrashFraction {
			ch.Crashes++
			ch.c.Kill(sn)
		} else {
			ch.Leaves++
			ch.c.Leave(sn)
		}
	})
}

// SteadyLevel computes the stationary level a node with budget w (bit/s)
// settles at in a population of n nodes with mean lifetime l and m state
// changes per lifetime, assuming eventBits-sized event messages: the
// smallest (strongest) level whose expected maintenance cost fits the
// budget,
//
//	cost(level) = (n / 2^level) · m / l · eventBits  ≤  w.
//
// This is the closed form of the §2 autonomy loop and seeds warm starts;
// the protocol's own shifting then takes over.
func SteadyLevel(n int, meanLifetime des.Time, m, eventBits, w float64, maxLevel int) int {
	if n <= 1 || w <= 0 {
		return 0
	}
	costAtZero := float64(n) * m / meanLifetime.Seconds() * eventBits
	if costAtZero <= w {
		return 0
	}
	l := int(math.Ceil(math.Log2(costAtZero / w)))
	if l < 0 {
		l = 0
	}
	if l > maxLevel {
		l = maxLevel
	}
	return l
}

// EventBits returns the size of a representative event message with the
// given attached-info length — the i of the paper's cost formula.
func EventBits(infoLen int) float64 {
	msg := wire.Message{
		Type:  wire.MsgEvent,
		Event: wire.Event{Kind: wire.EventJoin, Subject: wire.Pointer{Info: make([]byte, infoLen)}},
	}
	return float64(msg.SizeBits())
}

// WarmStart populates the cluster with n nodes in their converged state:
// profiles are sampled from the workload, levels assigned by SteadyLevel,
// peer lists installed from ground truth, and all periodic machinery
// started — equivalent to a long-running system at t=0. m is the assumed
// state changes per lifetime (2 = join+leave).
func (c *Cluster) WarmStart(n int, wl workload.Config, m float64) []*SimNode {
	return warmStart(c.rng, c.AddNode, c.Truth, c.cfg.Core, n, wl, m)
}

// warmStart is the body of both WarmStarts: profiles and top-list samples
// come from rng, nodes from add, and each node's converged level, peer
// list and top list are restored from truth under the protocol config.
func warmStart(rng *xrand.Source, add func(threshold float64) *SimNode, truth *oracle.Registry,
	cfg core.Config, n int, wl workload.Config, m float64) []*SimNode {
	if err := wl.Validate(); err != nil {
		panic(err)
	}
	eventBits := EventBits(0)
	type prep struct {
		sn    *SimNode
		level int
	}
	preps := make([]prep, n)
	for i := 0; i < n; i++ {
		profile := wl.SampleProfile(rng)
		sn := add(profile.Threshold)
		level := SteadyLevel(n, wl.EffectiveMeanLifetime(), m, eventBits,
			profile.Threshold, cfg.MaxLevel)
		preps[i] = prep{sn: sn, level: level}
		self := sn.Node.Self()
		self.Level = uint8(level)
		truth.Join(self)
	}
	// Top nodes: the strongest level present. Collect them all so each
	// node can receive its own random sample — concentrating every
	// node's top list on the same few pointers would funnel all report
	// and join traffic through them.
	minLevel := 255
	for _, p := range preps {
		if p.level < minLevel {
			minLevel = p.level
		}
	}
	var allTops []wire.Pointer
	truth.ForEach(func(p wire.Pointer) {
		if int(p.Level) == minLevel {
			allTops = append(allTops, p)
		}
	})
	t := cfg.TopListSize
	out := make([]*SimNode, n)
	for i, p := range preps {
		self := p.sn.Node.Self()
		eig := nodeid.EigenstringOf(self.ID, p.level)
		peers := truth.InPrefix(eig)
		tops := make([]wire.Pointer, 0, t)
		if len(allTops) <= t {
			tops = append(tops, allTops...)
		} else {
			for _, j := range rng.Perm(len(allTops))[:t] {
				tops = append(tops, allTops[j])
			}
		}
		p.sn.Node.Restore(p.level, peers, tops)
		out[i] = p.sn
	}
	return out
}
