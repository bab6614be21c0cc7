package core

import (
	"testing"

	"peerwindow/internal/nodeid"
	"peerwindow/internal/xrand"
)

// A dedup table (dedup.go) against a map model: records are put, read
// and pruned by a rule, with IDs drawn from a small set, from IDs whose
// low bits are all equal, and from IDs searched out to share an existing
// record's home slot, so probe runs form, wrap and cross each other.
// After every operation the table must pass its own check and hold
// exactly the model's records.

// dedupID decodes b into an ID of one of the families above; a search
// for a colliding ID starts at candidate from.
func dedupID(t *dedupTable, model map[nodeid.ID]dedupRec, b, from byte) nodeid.ID {
	k := uint64(b >> 2)
	switch b % 3 {
	case 0:
		return nodeid.ID{Hi: k % 4, Lo: k % 12}
	case 1:
		return nodeid.ID{Hi: k << 40, Lo: k << 58}
	}
	if len(model) == 0 {
		return nodeid.ID{Hi: 1, Lo: k}
	}
	// The home slot of the k-th record in slot order.
	var target nodeid.ID
	i := int(k) % len(model)
	for _, s := range t.slots {
		if s.r != (dedupRec{}) {
			if i == 0 {
				target = s.id
				break
			}
			i--
		}
	}
	home := t.home(target)
	for j := uint64(from) * 64; j < uint64(from)*64+1<<14; j++ {
		if id := (nodeid.ID{Hi: 7, Lo: j}); t.home(id) == home {
			return id
		}
	}
	return target
}

// dedupRecOf decodes b into a non-zero record.
func dedupRecOf(b byte) dedupRec {
	r := dedupRec{seq: uint64(b >> 1), dead: b&1 == 1}
	if r == (dedupRec{}) {
		r.dead = true
	}
	return r
}

// runDedupTableOps decodes ops into operations on one table and checks
// each against the model. An op byte c picks the operation by c%3 (put,
// get, prune) and takes its arguments from the next bytes. It runs at
// most maxOps operations.
func runDedupTableOps(t *testing.T, ops []byte, maxOps int) {
	t.Helper()
	next := func() byte {
		if len(ops) == 0 {
			return 0
		}
		c := ops[0]
		ops = ops[1:]
		return c
	}
	var tab dedupTable
	model := map[nodeid.ID]dedupRec{}
	check := func(step int, what string) {
		t.Helper()
		if err := tab.check(); err != nil {
			t.Fatalf("step %d (%s): %v", step, what, err)
		}
		sequenced := 0
		for id, r := range model {
			if got := tab.get(id); got != r {
				t.Fatalf("step %d (%s): %v reads %+v, model %+v", step, what, id, got, r)
			}
			if r.seq != 0 {
				sequenced++
			}
		}
		if tab.n != len(model) || tab.sequenced != sequenced {
			t.Fatalf("step %d (%s): table counts %d records, %d sequenced; model %d, %d",
				step, what, tab.n, tab.sequenced, len(model), sequenced)
		}
		for _, s := range tab.slots {
			if r, ok := model[s.id]; s.r != (dedupRec{}) && (!ok || r != s.r) {
				t.Fatalf("step %d (%s): table holds %v %+v, model %+v", step, what, s.id, s.r, r)
			}
		}
	}

	for step := 0; len(ops) > 0 && step < maxOps; step++ {
		c := next()
		switch c % 3 {
		case 0:
			id := dedupID(&tab, model, next(), next())
			r := dedupRecOf(next())
			tab.put(id, r)
			model[id] = r
			check(step, "put")
		case 1:
			id := dedupID(&tab, model, next(), next())
			if got := tab.get(id); got != model[id] {
				t.Fatalf("step %d (get): %v reads %+v, model %+v", step, id, got, model[id])
			}
		case 2:
			// pruneDedup's rule, with a bit of the ID standing in for
			// "held in the peer list".
			bit := c >> 2 % 8
			keep := func(id nodeid.ID, r dedupRec) bool { return r.seq == 0 || (id.Hi^id.Lo)>>bit&1 == 0 }
			size := len(tab.slots)
			tab.rebuild(len(tab.slots), keep)
			for id, r := range model {
				if !keep(id, r) {
					delete(model, id)
				}
			}
			if len(tab.slots) != size {
				t.Fatalf("step %d (prune): the table went from %d to %d slots", step, size, len(tab.slots))
			}
			check(step, "prune")
		}
	}
}

func TestDedupTableMatchesMap(t *testing.T) {
	rng := xrand.New(53)
	for round := 0; round < 300; round++ {
		ops := make([]byte, 20+rng.Intn(600))
		for i := range ops {
			ops[i] = byte(rng.Uint64())
		}
		runDedupTableOps(t, ops, len(ops))
	}
}

// fuzzMaxDedupOps caps the operations FuzzDedupTable decodes from one
// input: every step rechecks the whole table against the model.
const fuzzMaxDedupOps = 512

// FuzzDedupTable runs runDedupTableOps on fuzzer bytes, at most
// fuzzMaxDedupOps operations of them.
func FuzzDedupTable(f *testing.F) {
	// Puts from each family, reads of held and absent IDs, prunes under
	// different rules, and puts after a prune; the last seed puts the 64
	// IDs of the low-bits family (two growths), prunes twice, and adds
	// IDs that collide with held ones.
	var grow []byte
	for b := 1; b < 256; b += 3 {
		grow = append(grow, 0, byte(b), 0, byte(b))
	}
	grow = append(grow, 2, 14, 1, 5, 0, 1, 9, 0, 11)
	for b := 2; b < 64; b += 3 {
		grow = append(grow, 0, byte(b), byte(b), 1, 1, byte(b), 0)
	}
	f.Add(grow)
	f.Add([]byte{0, 0, 0, 1, 0, 4, 0, 3, 0, 8, 1, 5, 0, 2, 9, 7, 0, 2, 1, 6, 0, 6, 2, 8, 3, 2, 2, 0, 2, 5, 4, 1, 4, 0, 2})
	f.Add([]byte{0, 1, 0, 2, 0, 5, 0, 4, 0, 9, 0, 13, 0, 17, 0, 21, 0, 25, 0, 29, 0, 33, 0, 37, 0, 41, 0, 45, 0, 2, 5, 3, 2, 14, 20, 2, 26, 3, 11, 1, 8, 0, 8})
	f.Add([]byte{0, 2, 1, 2, 0, 2, 2, 4, 0, 2, 3, 6, 0, 2, 4, 8, 0, 2, 5, 10, 0, 2, 6, 12, 1, 2, 7, 5, 6, 0, 2, 8, 3, 1, 2, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		runDedupTableOps(t, ops, fuzzMaxDedupOps)
	})
}
