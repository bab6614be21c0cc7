package main

import (
	"math/bits"
	"net"
	"sort"
	"time"

	"peerwindow/internal/core"
	"peerwindow/internal/des"
	"peerwindow/internal/nodeid"
	"peerwindow/internal/query"
	"peerwindow/internal/sim"
	"peerwindow/internal/telemetry"
	"peerwindow/internal/trace"
	"peerwindow/internal/wire"
	"peerwindow/internal/workload"
	"peerwindow/internal/xrand"
)

// Layer probes: loops that call one public function of one layer with
// inputs shaped like the workloads' (a 1,000-pointer node, the churn
// workload's message kinds, a 10k-entry store). They only run in the
// traced pass and feed the per-layer rows and the attribution; no
// end-to-end number comes from here.

// probeCtx carries the loop budget, the recorder and the rows.
type probeCtx struct {
	c *runCtx
	m map[string]float64
}

// loop times batches of fn until the probe budget is spent and returns
// the median batch's nanoseconds per call and the mean heap allocations
// per call. Each probe loop is one span.
func (p *probeCtx) loop(name string, batch int, fn func()) (ns, allocs float64) {
	id := p.c.rec.begin(0, "probe."+name)
	defer p.c.rec.end(id)
	fn() // first call pays lazy set-up
	var perCall []float64
	calls := 0
	w := beginWindow()
	for time.Since(w.t0) < p.c.sz.probeBudget {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		perCall = append(perCall, float64(time.Since(t0))/float64(batch))
		calls += batch
	}
	u := w.end()
	return median(perCall), float64(u.mallocs) / float64(calls)
}

// stubEnv is a core.Env that does no work of its own: sends are kept
// for the probe to answer, timers never fire.
type stubEnv struct {
	now des.Time
	rng *xrand.Source
	out []wire.Message
}

type stubTimer struct{}

func (stubTimer) Cancel() bool { return true }

func (e *stubEnv) Now() des.Time                        { return e.now }
func (e *stubEnv) Rand() *xrand.Source                  { return e.rng }
func (e *stubEnv) Send(msg wire.Message)                { e.out = append(e.out, msg) }
func (e *stubEnv) SetTimer(des.Time, func()) core.Timer { return stubTimer{} }

// sortedPointers draws n distinct level-0 pointers in ID order.
func sortedPointers(n int, rng *xrand.Source) []wire.Pointer {
	ps := make([]wire.Pointer, n)
	for i := range ps {
		ps[i] = wire.Pointer{Addr: wire.Addr(i + 2), ID: nodeid.ID{Hi: rng.Uint64(), Lo: rng.Uint64()}}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].ID.Less(ps[j].ID) })
	return ps
}

// probeNode builds a joined level-0 node holding the given peers.
func probeNode(env *stubEnv, peers []wire.Pointer) *core.Node {
	self := wire.Pointer{Addr: 1, ID: nodeid.ID{Hi: env.rng.Uint64(), Lo: env.rng.Uint64()}}
	// No forward delay, so a handled event's forwards are part of the
	// call that is timed (the stub's timers never fire).
	cfg := sim.DefaultFullCore()
	cfg.ForwardDelay = 0
	n := core.NewNode(cfg, env, core.Observer{}, self)
	n.Restore(0, peers, peers[:8])
	return n
}

func probeDES(p *probeCtx) {
	fn := func() {}
	// Schedule + fire, queue drained every 1024 events so the heap stays
	// at a working size (BenchmarkEngineSchedule).
	e := des.New()
	i := 0
	ns, allocs := p.loop("des.schedule", 1024, func() {
		e.After(des.Time(i%1000)*des.Microsecond, fn)
		if i&1023 == 1023 {
			e.RunUntilIdle(2048)
		}
		i++
	})
	p.m["des.schedule_ns"], p.m["des.allocs_per_event"] = ns, allocs

	// Cancel + re-arm against a standing window of timers, the pattern
	// ring probing produces (BenchmarkEngineCancelChurn).
	const outstanding = 1024
	e = des.New()
	handles := make([]des.Handle, outstanding)
	for k := range handles {
		handles[k] = e.After(des.Time(2*outstanding+k)*des.Millisecond, fn)
	}
	i = 0
	p.m["des.cancel_churn_ns"], _ = p.loop("des.cancel_churn", 1024, func() {
		k := i % outstanding
		handles[k].Cancel()
		handles[k] = e.After(2*outstanding*des.Millisecond, fn)
		e.Run(e.Now() + des.Millisecond)
		i++
	})

	// One conservative window of 1024 keyed events: the sharded
	// simulators' inner loop.
	e = des.New()
	ns, _ = p.loop("des.run_window", 1, func() {
		base := e.Now()
		for k := 0; k < 1024; k++ {
			e.AtKey(base+des.Time(k+1)*des.Microsecond, uint64(k), des.EventTag{}, fn)
		}
		e.RunWindow(base + 2048*des.Microsecond)
	})
	p.m["des.run_window_ns"] = ns / 1024
}

// coreRows is what the attribution needs besides the reported rows.
type coreRows struct {
	handleEvent, handleAck, handleHeartbeat float64 // ns
}

func probeCore(p *probeCtx) coreRows {
	var rows coreRows
	rng := xrand.New(p.c.seed)
	peers := sortedPointers(1000, rng)
	env := &stubEnv{rng: rng.Split(1)}
	node := probeNode(env, peers)

	// Multicast steps arrive the way a tree hands them out: half the
	// receivers are leaves (step 10, nothing to forward), a quarter
	// forward once, and so on. Every forward is acked afterwards, which
	// is the ack row; both are timed per message in one pass.
	id := p.c.rec.begin(0, "probe.core.handle")
	var evNS, ackNS []float64
	var seq uint64
	handled := 0
	w := beginWindow()
	for time.Since(w.t0) < 2*p.c.sz.probeBudget {
		env.out = env.out[:0]
		const batch = 64
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			seq++
			subject := peers[int(seq)%len(peers)]
			subject.Info = []byte("slot=13")
			step := 10 - bits.TrailingZeros64(seq)
			if step < 1 {
				step = 1
			}
			node.HandleMessage(wire.Message{
				Type: wire.MsgEvent, From: peers[i].Addr, To: 1, Step: uint8(step), AckID: seq,
				Event: wire.Event{Kind: wire.EventInfoChange, Subject: subject, Seq: seq},
			})
		}
		evNS = append(evNS, float64(time.Since(t0))/batch)
		var acks []wire.Message
		for _, m := range env.out {
			if m.Type == wire.MsgEvent {
				acks = append(acks, wire.Message{Type: wire.MsgAck, From: m.To, To: 1, AckID: m.AckID})
			}
		}
		t0 = time.Now()
		for _, a := range acks {
			node.HandleMessage(a)
		}
		if len(acks) > 0 {
			ackNS = append(ackNS, float64(time.Since(t0))/float64(len(acks)))
		}
		handled += batch + len(acks)
		env.now += des.Second
	}
	u := w.end()
	p.c.rec.end(id)
	rows.handleEvent, rows.handleAck = median(evNS), median(ackNS)
	p.m["core.handle_event_ns"], p.m["core.handle_ack_ns"] = rows.handleEvent, rows.handleAck
	p.m["core.handle_allocs_per_msg"] = float64(u.mallocs) / float64(handled)

	hb := wire.Message{Type: wire.MsgHeartbeat, From: peers[0].Addr, To: 1, AckID: 1}
	rows.handleHeartbeat, _ = p.loop("core.handle_heartbeat", 256, func() {
		env.out = env.out[:0]
		node.HandleMessage(hb)
	})
	p.m["core.handle_heartbeat_ns"] = rows.handleHeartbeat

	// A top node announcing its own info change: apply + the whole first
	// fan-out of the tree. Forwards are acked outside the timing.
	info := []byte("slot=13")
	id = p.c.rec.begin(0, "probe.core.originate")
	var origNS []float64
	for t0 := time.Now(); time.Since(t0) < p.c.sz.probeBudget; {
		env.out = env.out[:0]
		s0 := time.Now()
		node.SetInfo(info)
		origNS = append(origNS, float64(time.Since(s0)))
		for _, m := range env.out {
			node.HandleMessage(wire.Message{Type: wire.MsgAck, From: m.To, To: 1, AckID: m.AckID})
		}
	}
	p.c.rec.end(id)
	p.m["core.originate_ns"] = median(origNS)

	// Peer-list primitives at the same size.
	var half core.PeerList
	for i := 0; i < len(peers); i += 2 {
		half.Upsert(peers[i], 0)
	}
	id = p.c.rec.begin(0, "probe.core.merge_sorted")
	var mergeNS []float64
	for t0 := time.Now(); time.Since(t0) < p.c.sz.probeBudget; {
		// Half the batch updates held entries, half is new: a
		// level-raising download into a warm list.
		var pl core.PeerList
		pl.MergeSorted(half.Pointers(), 0, nil, nil)
		s0 := time.Now()
		pl.MergeSorted(peers, 1, nil, nil)
		mergeNS = append(mergeNS, float64(time.Since(s0))/float64(len(peers)))
	}
	p.c.rec.end(id)
	p.m["core.merge_sorted_ns_per_ptr"] = median(mergeNS)

	list := node.Peers()
	i := 0
	p.m["core.upsert_ns"], _ = p.loop("core.upsert", 256, func() {
		q := peers[i%len(peers)]
		q.Level = uint8(i % 5)
		list.Upsert(q, env.now)
		i++
	})
	p.m["core.lookup_ns"], _ = p.loop("core.lookup", 256, func() {
		list.Lookup(peers[i%len(peers)].ID)
		i++
	})
	ns, _ := p.loop("core.restore", 1, func() {
		probeNode(&stubEnv{rng: rng.Split(2)}, peers)
	})
	p.m["core.restore_ms"] = ns / 1e6
	return rows
}

// wireRows is what the attribution needs besides the reported rows.
type wireRows struct {
	marshalEvent, unmarshalEvent, sizeBitsEvent, sizeBitsAck float64 // ns
}

func probeWire(p *probeCtx) wireRows {
	var rows wireRows
	rng := xrand.New(p.c.seed)
	subject := wire.Pointer{Addr: 7, ID: nodeid.ID{Hi: rng.Uint64(), Lo: rng.Uint64()}, Info: []byte("slot=13")}
	ev := wire.Message{
		Type: wire.MsgEvent, From: 7, To: 9, Step: 3, AckID: 12,
		Event: wire.Event{Kind: wire.EventInfoChange, Subject: subject, Seq: 1},
	}
	buf := ev.Marshal()
	var allocs float64
	rows.marshalEvent, allocs = p.loop("wire.marshal_event", 256, func() { _ = ev.Marshal() })
	p.m["wire.marshal_event_ns"], p.m["wire.marshal_allocs"] = rows.marshalEvent, allocs
	rows.unmarshalEvent, allocs = p.loop("wire.unmarshal_event", 256, func() {
		if _, err := wire.Unmarshal(buf); err != nil {
			panic(err) // the codec rejected its own output
		}
	})
	p.m["wire.unmarshal_event_ns"], p.m["wire.unmarshal_allocs"] = rows.unmarshalEvent, allocs
	rows.sizeBitsEvent, _ = p.loop("wire.sizebits_event", 256, func() { _ = ev.SizeBits() })
	p.m["wire.sizebits_event_ns"] = rows.sizeBitsEvent
	p.m["wire.event_bytes"] = float64(len(buf))
	ack := wire.Message{Type: wire.MsgAck, From: 9, To: 7, AckID: 12}
	rows.sizeBitsAck, _ = p.loop("wire.sizebits_ack", 256, func() { _ = ack.SizeBits() })

	// A 1,000-pointer list response: the join path's bulk transfer.
	list := wire.Message{Type: wire.MsgPeerListResp, From: 7, To: 9, AckID: 12, Pointers: sortedPointers(1000, rng)}
	lbuf := list.Marshal()
	ns, _ := p.loop("wire.marshal_list", 4, func() { _ = list.Marshal() })
	p.m["wire.marshal_list_ns_per_ptr"] = ns / 1000
	ns, _ = p.loop("wire.unmarshal_list", 4, func() {
		if _, err := wire.Unmarshal(lbuf); err != nil {
			panic(err)
		}
	})
	p.m["wire.unmarshal_list_ns_per_ptr"] = ns / 1000
	return rows
}

// probeQueryApply measures the write path of a store of the workload's
// size; it returns the update cost in ns for the attribution.
func probeQueryApply(p *probeCtx) float64 {
	store, model := buildQueryStore(p.c.sz.storeN, p.c.seed)
	rng := xrand.New(p.c.seed + 2)
	update := func() {
		j := rng.Intn(len(model.ps))
		up := model.ps[j]
		up.Level = uint8(rng.Intn(8))
		store.PeerUpdated(model.ps[j], up)
		model.ps[j] = up
	}
	ns, allocs := p.loop("query.apply_update", 64, update)
	p.m["query.apply_update_us"], p.m["query.apply_allocs"] = ns/1000, allocs

	// Remove and add are timed separately inside one replace cycle.
	id := p.c.rec.begin(0, "probe.query.apply_replace")
	var addNS, removeNS []float64
	for t0 := time.Now(); time.Since(t0) < p.c.sz.probeBudget; {
		j := rng.Intn(len(model.ps))
		fresh := model.pointer(freshInfo)
		s0 := time.Now()
		store.PeerRemoved(model.ps[j], core.RemoveStale)
		s1 := time.Now()
		store.PeerAdded(fresh)
		addNS = append(addNS, float64(time.Since(s1)))
		removeNS = append(removeNS, float64(s1.Sub(s0)))
		model.ps[j] = fresh
	}
	p.c.rec.end(id)
	p.m["query.apply_add_us"], p.m["query.apply_remove_us"] = median(addNS)/1000, median(removeNS)/1000

	// Fan-out: the same update with eight subscribers attached, minus
	// the update alone. Buffers are drained between batches.
	subs := make([]*query.Sub, 8)
	for i := range subs {
		subs[i] = store.Subscribe(1<<12, nil)
	}
	with, _ := p.loop("query.sub_fanout", 64, func() {
		update()
		for _, s := range subs {
			select {
			case <-s.C():
			default:
			}
		}
	})
	for _, s := range subs {
		s.Close()
	}
	p.m["query.sub_fanout_ns"] = with - ns
	return ns
}

func probeQueryReads(p *probeCtx) {
	store, model := buildQueryStore(p.c.sz.storeN, p.c.seed)
	v := store.View()
	i := 0
	p.m["query.get_ns"], _ = p.loop("query.get", 256, func() {
		v.Get(model.ps[i%len(model.ps)].ID)
		i++
	})
	ns, _ := p.loop("query.strongest8", 64, func() { v.Strongest(8) })
	p.m["query.strongest8_us"] = ns / 1000
	ns, _ = p.loop("query.with_field", 64, func() { v.WithField("slot=13") })
	p.m["query.with_field_us"] = ns / 1000
	p.m["query.min_level_ns"], _ = p.loop("query.min_level", 256, func() { v.MinLevel() })
}

func probeTelemetry(p *probeCtx) {
	rng := xrand.New(p.c.seed)
	env := &stubEnv{rng: rng.Split(1)}
	node := probeNode(env, sortedPointers(1000, rng))
	var frame []byte
	exp := telemetry.NewExporter(telemetry.ExporterConfig{Node: 1, Name: "probe", ID: node.Self().ID},
		telemetry.SinkFunc(func(b []byte) error {
			frame = append(frame[:0], b...)
			return nil
		}))
	beacon := telemetry.Beacon{Name: "probe", ID: node.Self().ID, Window: 1000}
	rounds := node.Metrics().Counter(core.MetricProbeRounds)
	col := telemetry.NewCollector(telemetry.CollectorConfig{Clock: func() des.Time { return env.now }})

	// Every flush sees a changed snapshot, as a live node's would be;
	// taking the snapshot is the node's cost, not the exporter's, and is
	// left out of the timing.
	id := p.c.rec.begin(0, "probe.telemetry")
	var flushNS, ingestNS []float64
	flushes := 0
	var flushAllocs uint64
	for t0 := time.Now(); time.Since(t0) < p.c.sz.probeBudget; {
		rounds.Inc()
		env.now += des.Second
		snap := node.MetricsSnapshot()
		w := beginWindow()
		_ = exp.Flush(env.now, snap, beacon) // the sink above cannot fail
		u := w.end()
		flushNS = append(flushNS, float64(u.wall))
		flushAllocs += u.mallocs
		flushes++
		s0 := time.Now()
		if err := col.Ingest(frame); err != nil {
			panic(err) // the collector rejected the exporter's own frame
		}
		ingestNS = append(ingestNS, float64(time.Since(s0)))
	}
	p.c.rec.end(id)
	p.m["telemetry.flush_us"] = median(flushNS) / 1000
	p.m["telemetry.flush_allocs"] = float64(flushAllocs) / float64(flushes)
	p.m["telemetry.ingest_us"] = median(ingestNS) / 1000
	p.m["telemetry.frame_bytes"] = float64(len(frame))
}

func probeTrace(p *probeCtx) {
	buf := trace.NewSpanBuffer(1 << 12)
	s := trace.Span{Node: 1, Kind: trace.SpanDeliver, Trace: wire.TraceID{Seq: 1}}
	p.m["trace.span_record_ns"], _ = p.loop("trace.span_record", 256, func() { buf.RecordSpan(s) })
}

// probeClusterOverheads runs one small churn-free cluster three ways —
// bare, exporting telemetry, recording spans — and reports what the two
// observability planes add to its wall time.
func probeClusterOverheads(p *probeCtx) {
	sz := p.c.sz
	wl := workload.DefaultConfig()
	wl.MeanLifetime = 10 * des.Hour
	run := func(name string, spans trace.SpanSink, export bool) time.Duration {
		id := p.c.rec.begin(0, "probe.cluster/"+name)
		defer p.c.rec.end(id)
		var best time.Duration
		// Best of three: the ratio of two short runs is otherwise at the
		// mercy of a single stolen time slice.
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			cl := sim.NewCluster(sim.ClusterConfig{Core: core.DefaultConfig(), Seed: p.c.seed, Spans: spans})
			cl.WarmStart(sz.overheadN, wl, 2)
			if export {
				cl.ExportTelemetry(sim.TelemetryConfig{Interval: 10 * des.Second})
			}
			cl.Run(sz.overheadRun)
			if d := time.Since(t0); best == 0 || d < best {
				best = d
			}
		}
		return best
	}
	bare := run("bare", nil, false)
	tel := run("telemetry", nil, true)
	spans := run("spans", trace.NewSpanBuffer(1<<16), false)
	p.m["telemetry.cluster_overhead_pct"] = 100 * (tel.Seconds()/bare.Seconds() - 1)
	p.m["trace.cluster_overhead_pct"] = 100 * (spans.Seconds()/bare.Seconds() - 1)
}

// probeUDPPair is the floor under udp_live: one datagram written and
// read between two plain loopback sockets, no protocol at all.
func probeUDPPair(p *probeCtx) float64 {
	a, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return 0
	}
	defer a.Close()
	b, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return 0
	}
	defer b.Close()
	dst := b.LocalAddr().(*net.UDPAddr)
	payload := make([]byte, 64)
	in := make([]byte, 2048)
	// One deadline for the whole loop: a lost datagram must not hang the
	// probe, and a per-read deadline would be timed with the read.
	_ = b.SetReadDeadline(time.Now().Add(10 * time.Second))
	ns, _ := p.loop("os.udp_pair", 64, func() {
		if _, err := a.WriteToUDP(payload, dst); err == nil {
			_, _, _ = b.ReadFromUDP(in)
		}
	})
	p.m["os.udp_pair_us"] = ns / 1000
	return ns
}
