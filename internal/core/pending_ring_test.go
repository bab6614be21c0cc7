package core

import (
	"sort"
	"testing"

	"peerwindow/internal/des"
	"peerwindow/internal/wire"
	"peerwindow/internal/xrand"
)

// The pending ring (reliable.go) against a map[uint64]*pendingSend
// model: reliable sends and ring heartbeats, which wait in separate
// queues, are armed, acked — live, late, duplicate and
// never-issued ids — and left to time out, ack ids jump ahead the way
// heartbeats and far-apart sends make them, and the node is stopped.
// After every operation the ring must hold exactly the model's sends,
// each under its own id, every other id must miss, and each send's
// rules must have run exactly when the model says.

// ringModel is the reference: the sends awaiting an ack, by id, each
// with the time its last attempt runs out.
type ringModel struct {
	pending map[uint64]*pendingSend
	failAt  map[uint64]des.Time
	// done lists ids that were answered or failed, for late acks.
	done []uint64
}

// maxTestRing bounds the ring length the collision jumps drive the
// ring to.
const maxTestRing = 1 << 12

// runPendingRingOps decodes ops into operations on one node and checks
// each against the model. An op byte c picks the operation by c%5 and
// carries a variant in c>>3; the next byte, where one is needed, is its
// argument. It runs at most maxOps operations.
func runPendingRingOps(t *testing.T, ops []byte, maxOps int) {
	t.Helper()
	next := func() byte {
		if len(ops) == 0 {
			return 0
		}
		c := ops[0]
		ops = ops[1:]
		return c
	}
	env := newFakeEnv(1)
	cfg := quietConfig()
	n := NewNode(cfg, env, Observer{}, ptrAt("0000", 0, 1))
	m := ringModel{pending: map[uint64]*pendingSend{}, failAt: map[uint64]des.Time{}}
	responses := map[uint64]int{}
	var failed []uint64
	// The sends are of one kind, or ring heartbeats, whose rules, for
	// this run, count each send's answers and failures by ack id.
	const kind = sendCrossRefresh
	saved := sendRules
	defer func() { sendRules = saved }()
	for _, k := range []sendKind{kind, sendProbe} {
		sendRules[k] = sendRule{
			answered: func(_ *Node, p *pendingSend, _ wire.Message) { responses[p.id]++ },
			failed:   func(_ *Node, p *pendingSend) { failed = append(failed, p.id) },
		}
	}

	finish := func(id uint64) {
		delete(m.pending, id)
		delete(m.failAt, id)
		m.done = append(m.done, id)
	}
	check := func(step int, what string) {
		t.Helper()
		if n.pending.n != len(m.pending) {
			t.Fatalf("step %d (%s): ring holds %d sends, model %d", step, what, n.pending.n, len(m.pending))
		}
		if err := n.checkSends(); err != nil {
			t.Fatalf("step %d (%s): %v", step, what, err)
		}
		if err := n.checkQueues(); err != nil {
			t.Fatalf("step %d (%s): %v", step, what, err)
		}
		for id, rec := range m.pending {
			if p := n.pending.get(id); p != rec || p.id != id {
				t.Fatalf("step %d (%s): pending send %d not found under its id", step, what, id)
			}
		}
		for _, id := range m.done {
			if n.pending.get(id) != nil {
				t.Fatalf("step %d (%s): finished send %d still found", step, what, id)
			}
		}
		for id := n.nextAckID + 1; id <= n.nextAckID+minPendingRing; id++ {
			if n.pending.get(id) != nil {
				t.Fatalf("step %d (%s): id %d, not yet issued, found", step, what, id)
			}
		}
	}
	// pick returns a model id chosen by b, in ascending order, or 0.
	pick := func(b byte) uint64 {
		if len(m.pending) == 0 {
			return 0
		}
		ids := make([]uint64, 0, len(m.pending))
		for id := range m.pending {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		return ids[int(b)%len(ids)]
	}

	for step := 0; len(ops) > 0 && step < maxOps; step++ {
		c := next()
		switch c % 5 {
		case 0, 1: // arm a send, or a heartbeat when no chain is pending, with 1–4 attempts
			attempts := 1 + int(c>>3)%4
			k, msg, timeout := kind, wire.Message{Type: wire.MsgTopListReq, To: 2}, cfg.AckTimeout
			if c>>5&1 == 1 && n.pending.get(n.probeID) == nil {
				k, msg, timeout = sendProbe, wire.Message{Type: wire.MsgHeartbeat, To: 2}, cfg.ProbeTimeout
			}
			p := n.track(k, msg, wire.Pointer{Addr: 2})
			p.attempts = attempts
			id := n.arm(p)
			if k == sendProbe {
				n.probeID = id
			}
			if _, dup := m.pending[id]; dup || id != n.nextAckID {
				t.Fatalf("step %d: send armed under id %d, next ack id %d", step, id, n.nextAckID)
			}
			rec := n.pending.get(id)
			if rec == nil {
				t.Fatalf("step %d: send %d not pending after it was armed", step, id)
			}
			m.pending[id] = rec
			m.failAt[id] = env.Now() + des.Time(attempts)*timeout
			check(step, "arm")
		case 2: // ack a live, finished or never-issued id
			b := next()
			var id uint64
			switch (c >> 3) % 3 {
			case 0:
				id = pick(b)
			case 1:
				if len(m.done) > 0 {
					id = m.done[int(b)%len(m.done)]
				}
			default:
				id = n.nextAckID + 1 + uint64(b)
			}
			want := responses[id]
			if _, live := m.pending[id]; live {
				want++
				finish(id)
			}
			n.HandleMessage(wire.Message{Type: wire.MsgAck, From: 2, To: 1, AckID: id})
			if responses[id] != want {
				t.Fatalf("step %d: ack %d ran %d responses, want %d", step, id, responses[id], want)
			}
			check(step, "ack")
		case 3: // let time pass: every send whose attempts ran out fails
			until := env.Now() + des.Time(next())*(cfg.AckTimeout/16)
			var want []uint64
			for id, at := range m.failAt {
				if at <= until {
					want = append(want, id)
				}
			}
			failed = failed[:0]
			env.engine.Run(until)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			sort.Slice(failed, func(i, j int) bool { return failed[i] < failed[j] })
			if len(failed) != len(want) {
				t.Fatalf("step %d: %v failed by %v, model says %v", step, failed, until, want)
			}
			for i := range want {
				if failed[i] != want[i] {
					t.Fatalf("step %d: %v failed by %v, model says %v", step, failed, until, want)
				}
				finish(want[i])
			}
			check(step, "time")
		default:
			if c>>3 == 31 { // stop: nothing is pending, nothing fires
				n.Stop()
				for id := range m.pending {
					finish(id)
				}
				failed = failed[:0]
				env.engine.Run(env.Now() + 10*cfg.AckTimeout)
				if len(failed) != 0 {
					t.Fatalf("step %d: %v failed after Stop", step, failed)
				}
				check(step, "stop")
				return
			}
			// Jump the ack ids ahead: by a few, or so that the next send
			// lands on a live send's slot, a whole number of ring
			// lengths past it. Each such jump can double the ring, so
			// they stop at maxTestRing.
			b := next()
			l := uint64(max(len(n.pending.slots), minPendingRing))
			if x := pick(b); (c>>3)%2 == 1 && x != 0 && l < maxTestRing {
				target := x + l*(1+uint64(b%3))
				for target <= n.nextAckID {
					target += l
				}
				n.nextAckID = target - 1
			} else {
				n.nextAckID += uint64(b % 64)
			}
			check(step, "jump")
		}
	}
}

func TestPendingRingMatchesMapModel(t *testing.T) {
	rng := xrand.New(43)
	for round := 0; round < 300; round++ {
		ops := make([]byte, 20+rng.Intn(400))
		for i := range ops {
			ops[i] = byte(rng.Uint64())
		}
		runPendingRingOps(t, ops, len(ops))
	}
}

// fuzzMaxRingOps caps the operations FuzzPendingRing decodes from one
// input: every step rechecks each send finished so far, so an input's
// cost grows with the square of its length, and an uncapped long input
// costs what thousands of short ones do.
const fuzzMaxRingOps = 128

// FuzzPendingRing runs runPendingRingOps on fuzzer bytes, at most
// fuzzMaxRingOps operations of them.
func FuzzPendingRing(f *testing.F) {
	// Sends held while ids jump by ring lengths (growth), acks of live,
	// finished and future ids, time-outs, and a final stop.
	f.Add([]byte{0, 8, 16, 4, 1, 12, 2, 0, 2, 8, 0, 2, 16, 5, 3, 200, 1, 18, 0, 10, 0, 56})
	f.Add([]byte{24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 3, 40, 2, 8, 1})
	f.Add([]byte{0, 12, 1, 0, 12, 1, 0, 12, 1, 2, 0, 2, 0, 2, 8, 3, 255, 3, 255})
	// Heartbeats beside sends: one answered, one left to time out while
	// sends come and go, a third armed after it failed.
	f.Add([]byte{40, 0, 2, 0, 1, 41, 3, 30, 0, 3, 120, 40, 8, 3, 255, 249})
	f.Fuzz(func(t *testing.T, ops []byte) {
		runPendingRingOps(t, ops, fuzzMaxRingOps)
	})
}
