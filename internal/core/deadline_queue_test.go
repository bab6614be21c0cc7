package core

import (
	"slices"
	"testing"

	"peerwindow/internal/des"
	"peerwindow/internal/freelist"
	"peerwindow/internal/xrand"
)

// Two nodes' deadline queues (deadline.go) drawing their segments from
// one shared pool, against a slice model of each queue and of its timer:
// entries are pushed (some of them queue a follow-up when they run),
// killed, run out by advancing time, and the queues are stopped. After
// every operation each queue must hold exactly its model's entries, in
// deadline order across segment boundaries, with the dead ones dropped
// off the head whenever the rules say so; every live entry must have run
// once, at its deadline, and no dead one; no entry may show in the other
// queue; and every segment the pool ever allocated must be held by one
// queue once or sit on the free list once, so a stopped queue has given
// its storage back.

// queueModel is one queue's reference: its entries, the deadline its
// timer is armed for (armed false: none), and the runs so far.
type queueModel struct {
	delay   des.Time
	entries []deadlined[uint64]
	armed   bool
	armedAt des.Time
	ran     []deadlined[uint64]
}

// Entry values: a bit asking for a follow-up push when the entry runs,
// a bit naming the queue, a bit marking a follow-up, then the issue
// counter. An entry's follow-up is the entry with the first bit swapped
// for the third, so the model knows it without watching the run.
const (
	followUp = 1
	queueBit = 2
	childBit = 4
)

// child returns the follow-up that entry v queues when it runs.
func child(v uint64) uint64 { return v&^followUp | childBit }

// burstLen is how many entries a burst pushes at once: enough segments
// that a few bursts drain the pool's first batch.
const burstLen = 8 * segLen

// runDeadlineQueueOps decodes ops into operations on two queues sharing
// one pool and checks each against the model. An op byte c picks the
// operation by c%6 and carries its variant in c>>3 (the queue, a burst,
// a follow-up, an advance's length); a kill takes the next byte as its
// argument. It runs at most maxOps operations.
func runDeadlineQueueOps(t *testing.T, ops []byte, maxOps int) {
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
	var pool freelist.List[segment[uint64], *segment[uint64]]
	dead := map[uint64]bool{}
	live := func(_ *Node, v uint64) bool { return !dead[v] }
	var issued uint64
	fresh := func(q int, follow bool) uint64 {
		issued++
		v := issued<<3 | uint64(q)*queueBit
		if follow {
			v |= followUp
		}
		return v
	}

	var qs [2]deadlineQueue[uint64]
	var logs [2][]deadlined[uint64]
	models := [2]*queueModel{{delay: 3 * des.Second}, {delay: 5 * des.Second}}
	node := &Node{env: env}
	for i := range qs {
		q := &qs[i]
		q.init(node, &pool, func(_ *Node, v uint64) {
			logs[i] = append(logs[i], deadlined[uint64]{at: env.Now(), v: v})
			if v&followUp != 0 {
				q.push(models[i].delay, child(v))
			}
		}, live)
	}

	dropDead := func(m *queueModel) {
		for len(m.entries) > 0 && dead[m.entries[0].v] {
			m.entries = m.entries[1:]
		}
	}
	// push is the model of deadlineQueue.push outside the tick; inside
	// it the entry is only appended (see tick).
	push := func(m *queueModel, v uint64) {
		dropDead(m)
		m.entries = append(m.entries, deadlined[uint64]{at: env.Now() + m.delay, v: v})
		if !m.armed {
			m.armed, m.armedAt = true, m.entries[0].at
		}
	}
	// tick is the model of the timer firing at now. A push made by a run
	// also drops the dead head, but the tick ends by dropping it anyway,
	// and the dead entries it would reach are behind the due ones.
	tick := func(i int, now des.Time) {
		m := models[i]
		m.armed = false
		for len(m.entries) > 0 && m.entries[0].at <= now {
			e := m.entries[0]
			m.entries = m.entries[1:]
			if dead[e.v] {
				continue
			}
			m.ran = append(m.ran, e) // it runs at its own deadline
			if e.v&followUp != 0 {
				m.entries = append(m.entries, deadlined[uint64]{at: now + m.delay, v: child(e.v)})
			}
		}
		dropDead(m)
		if len(m.entries) > 0 {
			m.armed, m.armedAt = true, m.entries[0].at
		}
	}

	var got []deadlined[uint64]
	check := func(step int, what string) {
		t.Helper()
		for i := range qs {
			q, m := &qs[i], models[i]
			if err := q.check(); err != nil {
				t.Fatalf("step %d (%s): queue %d: %v", step, what, i, err)
			}
			got = got[:0]
			q.each(func(e *deadlined[uint64]) { got = append(got, *e) })
			if !slices.Equal(got, m.entries) {
				t.Fatalf("step %d (%s): queue %d holds %v, model %v", step, what, i, got, m.entries)
			}
			for _, e := range got {
				if int(e.v&queueBit/queueBit) != i {
					t.Fatalf("step %d (%s): queue %d holds entry %d of the other queue", step, what, i, e.v)
				}
			}
			if q.timer.armed() != m.armed {
				t.Fatalf("step %d (%s): queue %d timer armed %v, model %v", step, what, i, q.timer.armed(), m.armed)
			}
			if !slices.Equal(logs[i], m.ran) {
				t.Fatalf("step %d (%s): queue %d ran %v, model %v", step, what, i, logs[i], m.ran)
			}
		}
		if err := checkSegments(&pool, []*deadlineQueue[uint64]{&qs[0], &qs[1]}); err != nil {
			t.Fatalf("step %d (%s): %v", step, what, err)
		}
	}

	for step := 0; len(ops) > 0 && step < maxOps; step++ {
		c := next()
		i := int(c>>3) & 1
		switch c % 6 {
		case 0, 1, 2: // push, with or without a follow-up; or a burst
			k := 1
			if c&0x80 != 0 {
				k = burstLen
			}
			for range k {
				v := fresh(i, c&0x40 != 0)
				qs[i].push(models[i].delay, v)
				push(models[i], v)
			}
			check(step, "push")
		case 3: // kill a queued entry of either queue
			var all []uint64
			for _, m := range models {
				for _, e := range m.entries {
					if !dead[e.v] {
						all = append(all, e.v)
					}
				}
			}
			b := next()
			if len(all) > 0 {
				dead[all[int(b)%len(all)]] = true
			}
			check(step, "kill")
		case 4: // advance time, firing the due ticks
			until := env.Now() + des.Time(c>>3%8)*des.Second
			for {
				k := -1
				for j, m := range models {
					if m.armed && m.armedAt <= until && (k < 0 || m.armedAt < models[k].armedAt) {
						k = j
					}
				}
				if k < 0 {
					break
				}
				env.engine.Run(models[k].armedAt)
				tick(k, env.Now())
			}
			env.engine.Run(until)
			check(step, "advance")
		case 5: // stop one queue
			qs[i].stop()
			models[i].entries, models[i].armed = nil, false
			check(step, "stop")
		}
	}
	for i := range qs {
		qs[i].stop()
	}
	if err := checkSegments(&pool, []*deadlineQueue[uint64]{&qs[0], &qs[1]}); err != nil {
		t.Fatalf("after stopping both queues: %v", err)
	}
}

func TestDeadlineQueuesMatchSliceModel(t *testing.T) {
	rng := xrand.New(47)
	for round := 0; round < 300; round++ {
		ops := make([]byte, 20+rng.Intn(400))
		for i := range ops {
			ops[i] = byte(rng.Uint64())
		}
		runDeadlineQueueOps(t, ops, len(ops))
	}
}

// fuzzMaxQueueOps caps the operations FuzzDeadlineQueue decodes from one
// input: every step rechecks both queues and the pool, so an input's
// cost grows with the square of its length.
const fuzzMaxQueueOps = 256

// FuzzDeadlineQueue runs runDeadlineQueueOps on fuzzer bytes, at most
// fuzzMaxQueueOps operations of them.
func FuzzDeadlineQueue(f *testing.F) {
	// Long runs of pushes to both queues (several segments each), kills,
	// advances across deadlines, stops, and pushes after a stop.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 3, 1, 3, 5, 28, 60, 5, 0, 0, 13, 0})
	f.Add([]byte{64, 64, 72, 72, 64, 64, 72, 72, 3, 0, 3, 2, 36, 36, 44, 44, 60, 3, 7, 60, 21, 29})
	f.Add([]byte{1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 3, 9, 3, 200, 20, 5, 13, 1, 1, 60, 60})
	f.Fuzz(func(t *testing.T, ops []byte) {
		runDeadlineQueueOps(t, ops, fuzzMaxQueueOps)
	})
}
