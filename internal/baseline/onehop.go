package baseline

import (
	"fmt"

	"peerwindow/internal/des"
)

// OneHopParams models the one-hop DHT of Gupta, Liskov and Rodrigues
// (HotOS '03), the §6 comparison point: every node keeps the full
// membership (like a level-0 PeerWindow node) and every node pays the
// full maintenance cost — "one-hop DHT treats almost all the nodes as
// homogeneous peers and costs too much for weak nodes when the system is
// very large and dynamic".
type OneHopParams struct {
	// N is the system size.
	N int
	// MeanLifetime drives the event rate (each lifetime contributes M
	// state changes).
	MeanLifetime des.Time
	// M is the number of state changes per lifetime.
	M float64
	// EventBits is the per-event message size.
	EventBits float64
}

// DefaultOneHopParams uses the paper's common-environment numbers.
func DefaultOneHopParams(n int) OneHopParams {
	return OneHopParams{N: n, MeanLifetime: 135 * des.Minute, M: 3, EventBits: 1000}
}

// Validate reports whether the parameters are usable.
func (p OneHopParams) Validate() error {
	if p.N <= 1 || p.MeanLifetime <= 0 || p.M <= 0 || p.EventBits <= 0 {
		return fmt.Errorf("baseline: invalid one-hop parameters %+v", p)
	}
	return nil
}

// CostPerNode returns the maintenance bandwidth every node must pay in a
// one-hop DHT: the full event stream, with no opt-out,
//
//	cost = N · M / L · eventBits   (bit/s).
func (p OneHopParams) CostPerNode() float64 {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return float64(p.N) * p.M / p.MeanLifetime.Seconds() * p.EventBits
}

// AffordableFraction returns the share of a budget distribution that can
// pay the one-hop cost. budgets must return the budget (bit/s) at a
// cumulative-probability quantile — e.g. the PeerWindow threshold
// distribution.
func (p OneHopParams) AffordableFraction(budgetAtQuantile func(q float64) float64) float64 {
	cost := p.CostPerNode()
	// Binary search the quantile where the budget crosses the cost
	// (budgets are monotone in the quantile).
	lo, hi := 0.0, 1.0
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if budgetAtQuantile(mid) < cost {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 1 - hi
}
