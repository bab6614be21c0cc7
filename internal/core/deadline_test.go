package core

import (
	"strings"
	"testing"

	"peerwindow/internal/des"
	"peerwindow/internal/wire"
	"peerwindow/internal/xrand"
)

// timedEnv is a countingEnv that also logs every send with its time.
type timedEnv struct {
	countingEnv
	log []timedSend
}

type timedSend struct {
	at  des.Time
	msg wire.Message
}

func (e *timedEnv) Send(msg wire.Message) {
	e.countingEnv.Send(msg)
	e.log = append(e.log, timedSend{at: e.now, msg: msg})
}

// events returns the logged multicast forwards.
func (e *timedEnv) events() []timedSend {
	var out []timedSend
	for _, s := range e.log {
		if s.msg.Type == wire.MsgEvent {
			out = append(out, s)
		}
	}
	return out
}

// queueNode is messagePathNode over a timedEnv: a level-0 node with a 1 s
// ForwardDelay whose one peer receives every forward.
func queueNode(t *testing.T) (*Node, *timedEnv, wire.Pointer) {
	t.Helper()
	env := &timedEnv{countingEnv: countingEnv{rng: xrand.New(1)}}
	cfg := quietConfig()
	cfg.ForwardDelay = des.Second
	peer := ptrAt("1000", 0, 2)
	n := NewNode(cfg, env, Observer{}, ptrAt("0000", 0, 1))
	n.Restore(0, []wire.Pointer{peer}, nil)
	env.disarm() // the periodic timers never fire here
	env.timers = 0
	return n, env, peer
}

// deliver hands the node a fresh info change about peer with sequence
// number seq.
func deliver(n *Node, peer wire.Pointer, seq uint64) {
	n.HandleMessage(wire.Message{
		Type: wire.MsgEvent, From: peer.Addr, To: 1, AckID: seq,
		Event: wire.Event{Kind: wire.EventInfoChange, Subject: peer, Seq: seq},
	})
}

func ack(n *Node, peer wire.Pointer, id uint64) {
	n.HandleMessage(wire.Message{Type: wire.MsgAck, From: peer.Addr, To: 1, AckID: id})
}

func checkNode(t *testing.T, n *Node) {
	t.Helper()
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A burst of k events delivered in one instant arms one hop timer, and
// their k forwards arm one ack timer.
func TestForwardBurstArmsOneTimer(t *testing.T) {
	n, env, peer := queueNode(t)
	const k = 5
	for seq := uint64(1); seq <= k; seq++ {
		deliver(n, peer, seq)
	}
	if env.timers != 1 || n.hops.len() != k {
		t.Fatalf("%d events queued %d hops behind %d timers, want %d behind 1", k, n.hops.len(), env.timers, k)
	}
	checkNode(t, n)
	env.fireArmed()
	if got := len(env.events()); got != k {
		t.Fatalf("%d forwards after the delay, want %d", got, k)
	}
	if env.timers != 2 || n.acks.len() != k || n.pending.n != k {
		t.Fatalf("%d forwards pending %d, queued %d behind %d timers in all, want 2 timers", k, n.pending.n, n.acks.len(), env.timers)
	}
	checkNode(t, n)
}

// Every unanswered attempt is retried exactly AckTimeout after it went
// out, in the order the sends were made.
func TestRetriesFireAckTimeoutAfterEachAttempt(t *testing.T) {
	n, env, peer := queueNode(t)
	deliver(n, peer, 1)
	env.now += 500 * des.Millisecond
	deliver(n, peer, 2)
	for i := 0; n.m.ackFailures.Value() < 2; i++ {
		if i == 10 {
			t.Fatal("the two sends never ran out of attempts")
		}
		env.fireArmed()
		checkNode(t, n)
	}
	first, second := env.events()[0].msg.AckID, env.events()[1].msg.AckID
	var want []timedSend
	for a := 0; a < n.cfg.RetryAttempts; a++ {
		at := des.Second + des.Time(a)*n.cfg.AckTimeout
		want = append(want,
			timedSend{at: at, msg: wire.Message{AckID: first}},
			timedSend{at: at + 500*des.Millisecond, msg: wire.Message{AckID: second}})
	}
	got := env.events()
	if len(got) != len(want) {
		t.Fatalf("%d forwards sent, want %d attempts of each of 2", len(got), n.cfg.RetryAttempts)
	}
	for i := range want {
		if got[i].at != want[i].at || got[i].msg.AckID != want[i].msg.AckID {
			t.Fatalf("attempt %d: send %d at %v, want send %d at %v", i, got[i].msg.AckID, got[i].at, want[i].msg.AckID, want[i].at)
		}
	}
	if r := n.m.ackRetries.Value(); r != uint64(2*(n.cfg.RetryAttempts-1)) {
		t.Fatalf("%d retries counted, want %d", r, 2*(n.cfg.RetryAttempts-1))
	}
}

// An answered entry at the head is skipped when its deadline passes:
// no retry, and the timer moves on to the next entry's deadline.
func TestAnsweredHeadIsSkipped(t *testing.T) {
	n, env, peer := queueNode(t)
	deliver(n, peer, 1)
	env.now += 500 * des.Millisecond
	deliver(n, peer, 2)
	env.fireArmed() // first forward at 1 s
	ack(n, peer, env.last.AckID)
	checkNode(t, n)

	env.fireArmed() // second forward at 1.5 s, then first's deadline: answered
	if env.now != des.Second+n.cfg.AckTimeout || len(env.events()) != 2 || n.m.ackRetries.Value() != 0 {
		t.Fatalf("at %v: %d forwards, %d retries; want the answered send skipped at %v",
			env.now, len(env.events()), n.m.ackRetries.Value(), des.Second+n.cfg.AckTimeout)
	}
	checkNode(t, n)
	second := env.events()[1].msg.AckID
	env.fireArmed() // second's deadline: retried
	last := env.events()[len(env.events())-1]
	if last.msg.AckID != second || last.at != 1500*des.Millisecond+n.cfg.AckTimeout || n.m.ackRetries.Value() != 1 {
		t.Fatalf("retry of send %d at %v, want send %d at %v", last.msg.AckID, last.at, second, 1500*des.Millisecond+n.cfg.AckTimeout)
	}
}

// Two events delivered 300 ms apart are forwarded at their own
// deadlines, each ForwardDelay after its delivery.
func TestHopsForwardAtTheirOwnDeadlines(t *testing.T) {
	n, env, peer := queueNode(t)
	deliver(n, peer, 1)
	env.now += 300 * des.Millisecond
	deliver(n, peer, 2)
	for i := 0; i < 2; i++ {
		env.fireArmed()
		ack(n, peer, env.last.AckID)
		checkNode(t, n)
	}
	evs := env.events()
	if len(evs) != 2 || evs[0].at != des.Second || evs[1].at != 1300*des.Millisecond {
		t.Fatalf("forwards %+v, want one at 1 s and one at 1.3 s", evs)
	}
	if evs[0].msg.Event.Seq != 1 || evs[1].msg.Event.Seq != 2 {
		t.Fatal("hops forwarded out of delivery order")
	}
}

// The deadline-queue clause of CheckInvariants catches each rule broken.
func TestQueueInvariantsCatchCorruption(t *testing.T) {
	cases := map[string]struct {
		corrupt func(n *Node)
		want    string
	}{
		"deadlines out of order": {
			func(n *Node) { n.hops.front().at += des.Hour },
			"out of order",
		},
		"live entries with no timer": {
			func(n *Node) { n.acks.timer.h = nil },
			"no timer armed",
		},
		"pending send not queued": {
			func(n *Node) { n.acks.pop() },
			"in the ack queue",
		},
		"pending send queued twice": {
			func(n *Node) { n.acks.push(n.cfg.AckTimeout, n.acks.front().v) },
			"queued twice",
		},
		"timeout beyond AckTimeout": {
			func(n *Node) { n.acks.tail.e[n.acks.ti-1].at += des.Hour },
			"after now + AckTimeout",
		},
		"heartbeat wait beyond ProbeTimeout": {
			func(n *Node) { n.probeWaits.front().at += des.Hour },
			"after now + ProbeTimeout",
		},
		"heartbeat waiting in the ack queue": {
			func(n *Node) {
				n.probeWaits.pop()
				n.acks.push(n.cfg.AckTimeout, n.probeID)
			},
			"waits in the ack queue",
		},
		"forward waiting in the probe-wait queue": {
			func(n *Node) { n.probeWaits.push(n.cfg.ProbeTimeout, n.acks.pop()) },
			"waits in the probe-wait queue",
		},
		"second probe chain": {
			func(n *Node) { n.probeOnce() },
			"beside the chain's",
		},
		"heartbeat the chain does not name": {
			func(n *Node) { n.probeID = 0 },
			"beside the chain's",
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			n, env, peer := queueNode(t)
			deliver(n, peer, 1)
			env.fireArmed() // one forward pending
			deliver(n, peer, 2)
			env.now += 100 * des.Millisecond
			deliver(n, peer, 3) // two hops queued
			n.probeOnce()       // one heartbeat waiting
			checkNode(t, n)
			tc.corrupt(n)
			err := n.CheckInvariants()
			if err == nil {
				t.Fatal("corruption not detected")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
