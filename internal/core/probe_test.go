package core

import (
	"fmt"
	"reflect"
	"testing"

	"peerwindow/internal/des"
	"peerwindow/internal/wire"
)

// beatLog is a fakeEnv that logs every heartbeat as "seconds→addr" and
// lets the node at alive answer what it is sent (see advance).
type beatLog struct {
	*fakeEnv
	alive   wire.Addr
	beats   []string
	replies []wire.Message
}

func (e *beatLog) Send(msg wire.Message) {
	e.fakeEnv.Send(msg)
	if msg.Type == wire.MsgHeartbeat {
		e.beats = append(e.beats, fmt.Sprintf("%g→%d", e.Now().Seconds(), msg.To))
	}
	if msg.To != e.alive || msg.AckID == 0 {
		return
	}
	reply := wire.Message{From: e.alive, To: msg.From, AckID: msg.AckID}
	switch msg.Type {
	case wire.MsgHeartbeat:
		reply.Type = wire.MsgHeartbeatAck
	case wire.MsgEvent:
		reply.Type = wire.MsgAck
	default:
		return
	}
	e.replies = append(e.replies, reply)
}

// advance runs d in one-second steps, handing n the replies to each
// step's sends at its end.
func (e *beatLog) advance(n *Node, d des.Time) {
	for end := e.Now() + d; e.Now() < end; {
		e.run(des.Second)
		replies := e.replies
		e.replies = nil
		for _, m := range replies {
			n.HandleMessage(m)
		}
	}
}

// overlapNode builds a level-0 node whose ring successors are b (addr
// 10), c (11) and d (12), with b and c crashed. One dead neighbour takes
// RetryAttempts × ProbeTimeout = 15 s to detect, longer than the 12 s
// ProbeInterval.
func overlapNode() (*Node, *beatLog) {
	env := &beatLog{fakeEnv: newFakeEnv(24), alive: 12}
	cfg := quietConfig()
	cfg.ProbeInterval = 12 * des.Second
	b, c, d := ptrAt("0100", 0, 10), ptrAt("1000", 0, 11), ptrAt("1100", 0, 12)
	n := NewNode(cfg, env, Observer{}, ptrAt("0000", 0, 1))
	n.Restore(0, []wire.Pointer{b, c, d}, nil)
	return n, env
}

// Two consecutive ring neighbours crash, so the redirect chain that finds
// them outlasts ProbeInterval. One chain walks the ring at a time (§4.1):
// each dead neighbour is detected RetryAttempts × ProbeTimeout after its
// first heartbeat, and a round that falls due while the chain's
// heartbeat is still pending starts nothing. Stop disarms the chain.
func TestOverlappingProbeRounds(t *testing.T) {
	n, env := overlapNode()
	env.advance(n, 60*des.Second)
	want := []string{
		"12→10", "17→10", "22→10", // round 1: b is silent
		"27→11", "32→11", "37→11", // b declared dead: redirect to c; round 2 (24 s) is skipped
		"42→12",          // c declared dead: redirect to d, which answers; round 3 (36 s) was skipped
		"48→12", "60→12", // rounds 4 and 5
	}
	if !reflect.DeepEqual(env.beats, want) {
		t.Fatalf("heartbeats (seconds→addr):\n got %q\nwant %q", env.beats, want)
	}
	if got := n.m.probeRounds.Value(); got != 5 {
		t.Fatalf("probe.rounds = %d, want 5: three chains and two redirects", got)
	}

	n, env = overlapNode()
	env.advance(n, 40*des.Second)
	probes := 0
	for _, p := range n.pending.slots {
		if p != nil && p.kind == sendProbe {
			probes++
		}
	}
	if probes != 1 || n.pending.get(n.probeID) == nil || n.probeWaits.len() != 1 {
		t.Fatalf("%d probe sends pending at 40 s, %d waits queued; want the chain's one", probes, n.probeWaits.len())
	}
	checkNode(t, n)
	n.Stop()
	if armed := env.engine.Pending(); armed != 0 {
		t.Fatalf("%d timers still armed after Stop", armed)
	}
}
