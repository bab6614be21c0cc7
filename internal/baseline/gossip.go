package baseline

import (
	"fmt"
	"math"

	"peerwindow/internal/des"
	"peerwindow/internal/xrand"
)

// GossipParams models the §2 alternative multicast: instead of the
// deterministic tree, every informed member forwards the event to Fanout
// uniformly random members for Rounds rounds ("the top node first
// initiates a gossip around all the top nodes…"). Gossip is robust but
// redundant: members receive each event r > 1 times, which multiplies
// the maintenance bandwidth by r compared to the tree's r = 1.
type GossipParams struct {
	// Fanout is how many random targets each informed member pushes to
	// per round.
	Fanout int
	// Rounds bounds how many rounds an infected member keeps pushing.
	Rounds int
	// StepCost is the per-round latency (network + processing).
	StepCost des.Time
}

// DefaultGossipParams gives the standard push-gossip setting that covers
// n members with high probability in ~log n rounds.
func DefaultGossipParams() GossipParams {
	return GossipParams{Fanout: 2, Rounds: 24, StepCost: 1500 * des.Millisecond}
}

// Validate reports whether the parameters are usable.
func (p GossipParams) Validate() error {
	if p.Fanout <= 0 || p.Rounds <= 0 || p.StepCost <= 0 {
		return fmt.Errorf("baseline: non-positive gossip parameter")
	}
	return nil
}

// GossipSim runs one push-gossip dissemination over n members and
// reports coverage, per-member redundancy and completion time.
type GossipSim struct {
	Params  GossipParams
	Members int

	// Results, populated by Run.
	Covered      int
	Messages     uint64
	Redundancy   float64 // messages per member
	CompleteAt   des.Time
	RoundsNeeded int
}

// Run executes the dissemination from a single seed member.
func (gs *GossipSim) Run(seed uint64) {
	if err := gs.Params.Validate(); err != nil {
		panic(err)
	}
	if gs.Members <= 1 {
		panic("baseline: GossipSim needs at least 2 members")
	}
	rng := xrand.New(seed)
	eng := des.New()
	n := gs.Members
	infected := make([]bool, n)
	infected[0] = true
	covered := 1
	var rounds int
	var push func(member, round int)
	push = func(member, round int) {
		if round >= gs.Params.Rounds || covered == n {
			return
		}
		for k := 0; k < gs.Params.Fanout; k++ {
			target := rng.Intn(n)
			gs.Messages++
			if !infected[target] {
				infected[target] = true
				covered++
				if covered == n {
					gs.CompleteAt = eng.Now() + gs.Params.StepCost
					rounds = round + 1
				}
				t := target
				r := round
				eng.After(gs.Params.StepCost, func() { push(t, r+1) })
			}
		}
		m := member
		r := round
		eng.After(gs.Params.StepCost, func() { push(m, r+1) })
	}
	push(0, 0)
	eng.RunUntilIdle(uint64(n) * uint64(gs.Params.Rounds) * uint64(gs.Params.Fanout) * 4)
	gs.Covered = covered
	gs.Redundancy = float64(gs.Messages) / float64(n)
	gs.RoundsNeeded = rounds
	if gs.CompleteAt == 0 {
		gs.CompleteAt = eng.Now()
	}
}

// TreeDissemination is the closed-form PeerWindow tree for comparison:
// n−1 messages (redundancy (n−1)/n ≈ 1) completing in ceil(log2 n)
// steps.
func TreeDissemination(n int, stepCost des.Time) (messages uint64, redundancy float64, complete des.Time) {
	if n <= 1 {
		return 0, 0, 0
	}
	messages = uint64(n - 1)
	redundancy = float64(n-1) / float64(n)
	steps := int(math.Ceil(math.Log2(float64(n))))
	return messages, redundancy, des.Time(steps) * stepCost
}
