package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"peerwindow/internal/core"
	"peerwindow/internal/nodeid"
	"peerwindow/internal/query"
	"peerwindow/internal/wire"
	"peerwindow/internal/xrand"
)

// query_mixed: one query.Store taking deltas and reads in a fixed
// interleave — one delta of the 3:1 update / remove+add mix, then one
// each of Get, Strongest(8), WithField("slot=13") and MinLevel — from
// one goroutine, for a fixed time. Only the query package works.
//
// The design first tried was the one the issue describes: a writer
// goroutine paced at 5,000 deltas/s beside a closed-loop reader
// goroutine. It is not used because it cannot be a gate on two cores:
// the same seed gave 21k, 59k, 62k and 86k reads/s on consecutive runs.
// A WithField call rebuilds the field index of every bucket a delta has
// touched since the previous call, so the reader's cost per call depends
// on how the scheduler happens to burst the writer between two calls.
// The interleave keeps the ratio that design settled at (about four
// reads per delta) and makes the work per cycle a function of the seed
// alone.

// queryModel is the store's ground truth, kept by the writer: the first
// half of the slots never change identity (reads of them must hit), the
// second half is replaced over time.
type queryModel struct {
	ps  []wire.Pointer
	rng *xrand.Source
}

var (
	queryOSes  = []string{"linux", "plan9", "openbsd", "darwin"}
	queryRoles = []string{"db", "cache", "edge", "archive"}
)

// freshInfo is shared by every replacement entry; the store copies it
// and nothing writes to it.
var freshInfo = []byte("os=linux;role=db;fresh=1")

// pointer draws a uniformly random identifier, so making an entry costs
// the measured window no allocation.
func (m *queryModel) pointer(info []byte) wire.Pointer {
	id := nodeid.ID{Hi: m.rng.Uint64(), Lo: m.rng.Uint64()}
	return wire.Pointer{Addr: wire.Addr(id.Lo | 1), ID: id, Level: uint8(m.rng.Intn(8)), Info: info}
}

// buildQueryStore fills a store with n entries carrying realistic
// attached infos (the benchStore shape of internal/query/bench_test.go).
func buildQueryStore(n int, seed uint64) (*query.Store, *queryModel) {
	s := query.NewStore(nil)
	m := &queryModel{ps: make([]wire.Pointer, n), rng: xrand.New(seed)}
	for i := range m.ps {
		info := fmt.Sprintf("os=%s;role=%s;slot=%d",
			queryOSes[m.rng.Intn(len(queryOSes))], queryRoles[m.rng.Intn(len(queryRoles))], i%97)
		m.ps[i] = m.pointer([]byte(info))
		s.PeerAdded(m.ps[i])
	}
	return s, m
}

// apply performs one delta of the 3:1 mix — three level updates of a
// random entry to one remove+add that replaces a volatile entry — and
// returns how long the store calls took.
func (m *queryModel) apply(s *query.Store, c *runCtx, parent int) time.Duration {
	if m.rng.Intn(4) != 0 {
		j := m.rng.Intn(len(m.ps))
		up := m.ps[j]
		up.Level = uint8(m.rng.Intn(8))
		id := c.rec.begin(parent, "query.Store.PeerUpdated")
		t0 := time.Now()
		s.PeerUpdated(m.ps[j], up)
		d := time.Since(t0)
		c.rec.end(id)
		m.ps[j] = up
		return d
	}
	half := len(m.ps) / 2
	j := half + m.rng.Intn(len(m.ps)-half)
	fresh := m.pointer(freshInfo)
	id := c.rec.begin(parent, "query.Store.PeerRemoved+PeerAdded")
	t0 := time.Now()
	s.PeerRemoved(m.ps[j], core.RemoveStale)
	s.PeerAdded(fresh)
	d := time.Since(t0)
	c.rec.end(id)
	m.ps[j] = fresh
	return d
}

// sorted returns the model in the store's canonical ID order.
func (m *queryModel) sorted() []wire.Pointer {
	out := append([]wire.Pointer(nil), m.ps...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID.Less(out[j].ID) })
	return out
}

func runQuery(c *runCtx) sample {
	s := newSample()
	sz := c.sz
	root := c.rec.begin(0, "query_mixed")
	defer c.rec.end(root)

	t0 := time.Now()
	var store *query.Store
	var model *queryModel
	c.rec.do(root, "query.build", func(int) { store, model = buildQueryStore(sz.storeN, c.seed) })
	sub := store.Subscribe(1<<12, nil)
	s.add("setup_s", time.Since(t0).Seconds())
	stable := make([]nodeid.ID, sz.storeN/2)
	for i := range stable {
		stable[i] = model.ps[i].ID
	}
	drain := func() {
		for {
			select {
			case <-sub.C():
			default:
				return
			}
		}
	}

	// Mixed phase, measured in half-second chunks.
	mixed := c.phase * 17 / 20
	span := c.rec.begin(root, "query_mixed/mixed")
	rng := xrand.New(c.seed + 1)
	var applyLat []time.Duration
	ops, misses := 0, 0
	runtime.GC()
	for end := time.Now().Add(mixed); time.Now().Before(end); {
		w := beginWindow()
		n := 0
		for time.Since(w.t0) < queryChunk {
			for i := 0; i < 16; i++ {
				applyLat = append(applyLat, model.apply(store, c, span))
				v := store.View()
				id := 0
				if i == 0 {
					id = c.rec.begin(span, "query.View.reads")
				}
				if _, ok := v.Get(stable[rng.Intn(len(stable))]); !ok {
					misses++
				}
				v.Strongest(8)
				v.WithField("slot=13")
				v.MinLevel()
				if i == 0 {
					c.rec.end(id)
				}
			}
			n += 16 * 5
			drain()
		}
		u := w.end()
		s.add("ops_per_s", float64(n)/u.wall.Seconds())
		s.add("allocs_per_op", float64(u.mallocs)/float64(n))
		s.add("cpu_us_per_op", u.cpu()*1e6/float64(n))
		ops += n
	}
	c.rec.end(span)

	// Write-only tail at full speed: the store's raw delta rate.
	tail := c.phase - mixed
	n := 0
	w0 := time.Now()
	span = c.rec.begin(root, "query_mixed/write-only")
	for time.Since(w0) < tail {
		for i := 0; i < 64; i++ {
			model.apply(store, c, span)
		}
		n += 64
		drain()
	}
	c.rec.end(span)
	s.add("query.deltas_per_s", float64(n)/time.Since(w0).Seconds())

	l := durationsMS(applyLat)
	s.add("op_p50_ms", quantile(l, 0.5))
	s.add("query.apply_p99_us", 1000*quantile(l, 0.99))
	s.add("query.sub_dropped", float64(sub.Dropped()))
	sub.Close()

	s.ops = ops + n
	s.failed = misses
	s.check(misses == 0, "%d lookups of never-removed IDs missed", misses)
	s.check(sub.Dropped() == 0, "subscription dropped %d deltas", sub.Dropped())
	if err := store.CheckAgainst(model.sorted()); err != nil {
		s.check(false, "store diverged from the model: %v", err)
	}
	return s
}

const queryChunk = 500 * time.Millisecond
