package main

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"peerwindow/internal/core"
	"peerwindow/internal/des"
	"peerwindow/internal/metrics"
	"peerwindow/internal/nodeid"
	"peerwindow/internal/query"
	"peerwindow/internal/trace"
	"peerwindow/internal/udptransport"
	"peerwindow/internal/wire"
	"peerwindow/internal/xrand"
)

// udp_live: udptransport nodes in this process on real loopback sockets
// (loopback, not a link: no wire latency, no loss, no MTU pressure).
// The udptransport executor and reader, the real wire codec, the
// query.Store publish and two syscalls per message do the work; the
// simulators do none of it. Phase A multicasts info changes in a closed
// loop with two events outstanding; phase B joins a fresh node and has it
// leave again, one at a time, through the same runtime, so a gain for
// multicast that costs joins (or the reverse) shows.
//
// Closed loop on purpose: an open loop paced by time.Sleep was tried at
// 500 events/s and measured the generator's timer, not the node — its
// p50 was four times the closed-loop one and its p99 moved 3.5–8.7 ms
// from run to run.

const (
	udpOutstanding = 2               // events in flight in phase A
	udpOpTimeout   = 2 * time.Second // an event or join not complete by then has failed
	udpChunk       = 500 * time.Millisecond
	udpWarmEvents  = 32 // warm-up events per node during set-up
)

// liveNode is everything the driver needs from a node runtime: the five
// calls that make load (listen — see overlay.listen — join, set info,
// subscribe through Query, leave/close) plus the counters it reads.
// udptransport.Node is the one implementation today. The in-process
// transport is left out on purpose: its per-message cost is an injected
// time.AfterFunc latency, so it cannot show a code gain; it fits behind
// the same calls once the runtimes are merged.
type liveNode interface {
	Self() wire.Pointer
	Bootstrap()
	Join(bootstrap wire.Pointer, timeout time.Duration) error
	SetInfo(info []byte)
	Query() *query.Store
	Leave()
	Close()
	Counters() (sent, received uint64)
	MetricsSnapshot() metrics.Snapshot
}

func udpConfig() core.Config {
	cfg := core.DefaultConfig()
	// Protocol timers out of the way: latency is code + kernel.
	cfg.ForwardDelay = 0
	cfg.ProbeInterval = 1 * des.Second
	cfg.ProbeTimeout = 300 * des.Millisecond
	cfg.AckTimeout = 300 * des.Millisecond
	cfg.RefreshEnabled = false
	cfg.ReconcileDelay = 500 * des.Millisecond
	return cfg
}

// pendingOp is one operation the driver waits on: an info change seen by
// every other node, a leave removed everywhere, or a join complete
// everywhere. Store filters on the nodes' executors count it down.
type pendingOp struct {
	id        nodeid.ID       // subject
	kind      query.DeltaKind // the delta that counts: update, remove or add
	k         uint64          // info counter (updates only)
	start     time.Time
	remaining atomic.Int32
	doneAt    time.Time // written by the filter that takes remaining to 0
}

// member is one live node with the identity the driver checks windows
// against (Self goes through the node's executor, so it is read once).
type member struct {
	liveNode
	self wire.Pointer
}

// overlay is the set of live nodes plus the completion plumbing.
type overlay struct {
	c     *runCtx
	span  int // parent span of the whole repeat
	nodes []member
	rng   *xrand.Source
	// bind starts one node of the runtime under test.
	bind  func(name string) (liveNode, error)
	names int
	seq   uint64 // info counter: every event announces a fresh value
	info  [20]byte

	events  sync.Map                  // origin ID → *pendingOp
	member  atomic.Pointer[pendingOp] // the one leave or join in flight
	done    chan *pendingOp
	retries int

	listenLat, joinLat, rpcLat []time.Duration

	// Totals of nodes that have left, so run-wide sums stay exact.
	goneSent, goneRecv uint64
	goneMetrics        metrics.Snapshot
}

// watch installs the completion filter on a node's store. The filter
// runs on the node's executor right after each view is published — the
// moment a reader could first see the change — and queues nothing, so
// no extra goroutine competes with the nodes for the two CPUs. joining
// is the node's own join, complete on its side once its window holds
// full entries; nil for the bootstrap node.
func (o *overlay) watch(n liveNode, joining *pendingOp, full int) {
	store := n.Query()
	var complete bool
	store.Subscribe(1, func(d query.Delta) bool {
		if d.Kind == query.DeltaUpdate {
			if v, ok := o.events.Load(d.Entry.ID); ok {
				p := v.(*pendingOp)
				if k, err := strconv.ParseUint(d.Entry.Info(), 10, 64); err == nil && k == p.k {
					o.countDown(p)
				}
			}
			return false
		}
		p := o.member.Load()
		if p == nil {
			return false
		}
		if d.Kind == p.kind && d.Entry.ID == p.id {
			o.countDown(p)
		}
		if p == joining && !complete && store.View().Len() == full {
			complete = true
			o.countDown(p)
		}
		return false
	})
}

// countDown notes one more node that has seen p. A full done channel
// means the driver gave up on earlier operations; p then times out too.
func (o *overlay) countDown(p *pendingOp) {
	if p.remaining.Add(-1) == 0 {
		p.doneAt = time.Now()
		select {
		case o.done <- p:
		default:
		}
	}
}

// await blocks until p completes or times out.
func (o *overlay) await(p *pendingOp) (time.Duration, bool) {
	timer := time.NewTimer(udpOpTimeout)
	defer timer.Stop()
	for {
		select {
		case q := <-o.done:
			if q == p {
				return p.doneAt.Sub(p.start), true
			}
		case <-timer.C:
			return 0, false
		}
	}
}

// listen binds one node, retrying when the TCP sidecar's port number is
// taken (the UDP port is chosen by the kernel, the TCP one must match).
func (o *overlay) listen() (liveNode, error) {
	id := o.c.rec.begin(o.span, "udptransport.Listen")
	defer o.c.rec.end(id)
	t0 := time.Now()
	for attempt := 0; ; attempt++ {
		o.names++
		n, err := o.bind(fmt.Sprintf("bench-%d-%d", o.c.seed, o.names))
		if err == nil {
			o.listenLat = append(o.listenLat, time.Since(t0))
			return n, nil
		}
		if !errors.Is(err, syscall.EADDRINUSE) || attempt == 5 {
			return nil, err
		}
		o.retries++
	}
}

// joinOne listens on a fresh node and joins it through a random live
// node. The join is timed from Listen to the moment the joiner's window
// holds every live node and every live node's window holds the joiner.
// ok is false when that did not happen within the timeout.
func (o *overlay) joinOne() (ok bool, err error) {
	t0 := time.Now()
	n, err := o.listen()
	if err != nil {
		return false, err
	}
	self := n.Self()
	others := len(o.nodes)
	join := &pendingOp{id: self.ID, kind: query.DeltaAdd, start: t0}
	join.remaining.Store(int32(others + 1)) // every live node, plus the joiner's own window
	o.member.Store(join)
	o.watch(n, join, others)
	boot := o.nodes[o.rng.Intn(others)].self
	id := o.c.rec.begin(o.span, "udptransport.Join")
	r0 := time.Now()
	err = n.Join(boot, 5*time.Second)
	o.rpcLat = append(o.rpcLat, time.Since(r0))
	o.c.rec.end(id)
	o.nodes = append(o.nodes, member{n, self})
	if err != nil {
		return false, nil
	}
	id = o.c.rec.begin(o.span, "join-wait")
	d, ok := o.await(join)
	o.c.rec.end(id)
	if ok {
		o.joinLat = append(o.joinLat, d)
	}
	return ok, nil
}

// leaveOne makes node i depart politely and waits until every other
// node has dropped it.
func (o *overlay) leaveOne(i int) bool {
	leaver := o.nodes[i]
	o.nodes[i] = o.nodes[len(o.nodes)-1]
	o.nodes = o.nodes[:len(o.nodes)-1]
	leave := &pendingOp{id: leaver.self.ID, kind: query.DeltaRemove, start: time.Now()}
	leave.remaining.Store(int32(len(o.nodes)))
	o.member.Store(leave)
	id := o.c.rec.begin(o.span, "udptransport.Leave")
	// Counters are read before the node stops answering.
	s, r := leaver.Counters()
	o.goneSent += s
	o.goneRecv += r
	o.goneMetrics.Merge(leaver.MetricsSnapshot())
	leaver.Leave()
	o.c.rec.end(id)
	_, ok := o.await(leave)
	return ok
}

func (o *overlay) counters() (sent, recv uint64) {
	sent, recv = o.goneSent, o.goneRecv
	for _, n := range o.nodes {
		s, r := n.Counters()
		sent += s
		recv += r
	}
	return sent, recv
}

func (o *overlay) metricsTotal() metrics.Snapshot {
	var total metrics.Snapshot
	total.Merge(o.goneMetrics)
	for _, n := range o.nodes {
		total.Merge(n.MetricsSnapshot())
	}
	return total
}

// converged reports whether every node's window is exactly the other
// live nodes.
func (o *overlay) converged() bool {
	for _, n := range o.nodes {
		v := n.Query().View()
		if v.Len() != len(o.nodes)-1 {
			return false
		}
		for _, m := range o.nodes {
			if _, ok := v.Get(m.self.ID); !ok && m.self.ID != n.self.ID {
				return false
			}
		}
	}
	return true
}

func (o *overlay) waitConverged(limit time.Duration) bool {
	deadline := time.Now().Add(limit)
	for !o.converged() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

func runUDP(c *runCtx) sample {
	s := newSample()
	sz := c.sz
	root := c.rec.begin(0, "udp_live")
	defer c.rec.end(root)
	// done is sized well above the three operations that can be in
	// flight, so only completions of operations already given up on can
	// find it full.
	o := &overlay{c: c, span: root, rng: xrand.New(c.seed), done: make(chan *pendingOp, 16)}
	var spans []*trace.SpanBuffer
	cfg := udpConfig()
	o.bind = func(name string) (liveNode, error) {
		n, err := udptransport.Listen("127.0.0.1:0", name, 1e9, cfg)
		if err != nil {
			return nil, err
		}
		// Only the set-up's nodes record spans, into small rings: the
		// tree rows come from phase A's last events, and a ring per
		// short-lived phase-B node would be megabytes of garbage each.
		if c.traced() && len(spans) < sz.udpNodes {
			spans = append(spans, n.EnableSpans(1<<12))
		}
		return n, nil
	}
	defer func() {
		for _, n := range o.nodes {
			n.Close()
		}
	}()

	// Set-up: bootstrap one node, join the others one at a time (each
	// confirmed everywhere before the next starts: back-to-back joins
	// race each other's join windows and leave holes that only the
	// 500 ms reconcile pass fills), then warm every node's multicast
	// path with a fixed number of events.
	t0 := time.Now()
	first, err := o.listen()
	if err != nil {
		s.check(false, "listen: %v", err)
		return s
	}
	o.watch(first, nil, 0)
	first.Bootstrap()
	o.nodes = append(o.nodes, member{first, first.Self()})
	for len(o.nodes) < sz.udpNodes {
		ok, err := o.joinOne()
		if err != nil || !ok {
			s.check(false, "set-up join %d: complete=%v err=%v", len(o.nodes), ok, err)
			return s
		}
	}
	o.joinLat, o.rpcLat = nil, nil
	o.phaseEvents(nil, 0, udpWarmEvents*sz.udpNodes)
	s.check(o.converged(), "set-up: windows differ from the live set")
	s.add("setup_s", time.Since(t0).Seconds())
	s.add("udptransport.listen_ms", quantile(durationsMS(o.listenLat), 0.5))

	runtime.GC()
	a := o.phaseEvents(&s, c.phase*3/5, 0)
	var treeSpans []trace.Span
	for _, buf := range spans {
		treeSpans = append(treeSpans, buf.Snapshot()...)
	}
	b := o.phaseJoins(&s, c.phase*2/5)

	// Output checks over the whole repeat.
	s.check(o.waitConverged(2*time.Second), "final windows differ from the live set")
	total := o.metricsTotal()
	garbage := total.Counters[metrics.MetricNetGarbage]
	s.check(garbage == 0, "net.garbage_datagrams = %d, want 0", garbage)
	s.check(a.lost == 0, "phase A: %d datagrams sent but never received", a.lost)
	s.add("udptransport.garbage_datagrams", float64(garbage))
	s.add("udptransport.bulk_sends", float64(total.Gauges[metrics.MetricNetBulkSends]))
	s.add("udptransport.listen_retries", float64(o.retries))
	addProtocolRatios(&s, nil, total.Counters)

	if c.traced() {
		st := trace.Aggregate(trace.BuildTrees(treeSpans))
		s.add("core.multicast.depth_mean", st.MeanDepth)
		s.add("core.multicast.root_out_degree", st.MeanRootOut)
		if st.MeanDepth > 0 {
			s.add("udptransport.hop_us", 1000*a.p50ms/st.MeanDepth)
		}
		s.check(st.Trees > 0, "traced repeat reconstructed no multicast tree")
	}
	s.ops = a.events + b.cycles
	s.failed = a.failed + b.failed
	return s
}

type phaseA struct {
	events, failed int
	lost           uint64
	p50ms          float64
}

// phaseEvents is the multicast phase: a closed loop keeping two info
// changes outstanding, origins taken round-robin, each complete when the
// stores of all other nodes have published the origin's new counter. It
// runs for length, or — as the set-up's warm-up, with s nil and nothing
// recorded — for exactly count events.
func (o *overlay) phaseEvents(s *sample, length time.Duration, count int) phaseA {
	c := o.c
	span := c.rec.begin(o.span, "udp_live/events")
	defer c.rec.end(span)
	var res phaseA
	var lat []time.Duration
	inflight := map[*pendingOp]int{} // → span id of the delivery wait
	next := 0
	issue := func() {
		// Round-robin, skipping an origin whose last event is still in
		// flight (a lost datagram costs it a 300 ms retransmission): one
		// event per origin at a time keeps "this receiver has seen
		// counter k" unambiguous.
		n := o.nodes[next%len(o.nodes)]
		for next++; ; next++ {
			if _, busy := o.events.Load(n.self.ID); !busy {
				break
			}
			n = o.nodes[next%len(o.nodes)]
		}
		o.seq++
		p := &pendingOp{id: n.self.ID, kind: query.DeltaUpdate, k: o.seq, start: time.Now()}
		p.remaining.Store(int32(len(o.nodes) - 1))
		o.events.Store(p.id, p)
		id := c.rec.begin(span, "udptransport.SetInfo")
		n.SetInfo(strconv.AppendUint(o.info[:0], p.k, 10))
		c.rec.end(id)
		inflight[p] = c.rec.begin(span, "delivery-wait")
		res.events++
	}
	finish := func(p *pendingOp, ok bool) {
		c.rec.end(inflight[p])
		delete(inflight, p)
		o.events.Delete(p.id)
		if ok {
			lat = append(lat, p.doneAt.Sub(p.start))
		} else {
			res.failed++
		}
	}

	sent0, _ := o.counters()
	start := time.Now()
	more := func() bool {
		if count > 0 {
			return res.events < count
		}
		return time.Since(start) < length
	}
	timeout := time.NewTimer(udpOpTimeout)
	defer timeout.Stop()
	chunkSent, chunkEvents := sent0, 0
	w := beginWindow()
	goroutines := runtime.NumGoroutine()
	// flush closes the current chunk: one sample of every rate.
	flush := func() {
		u := w.end()
		sent, _ := o.counters()
		if msgs := sent - chunkSent; msgs > 0 {
			s.add("ops_per_s", float64(msgs)/u.wall.Seconds())
			s.add("allocs_per_op", float64(u.mallocs)/float64(msgs))
			s.add("cpu_us_per_op", u.cpu()*1e6/float64(msgs))
			s.add("udptransport.cpu_user_us_per_msg", u.user*1e6/float64(msgs))
			s.add("udptransport.cpu_sys_us_per_msg", u.sys*1e6/float64(msgs))
			s.add("udptransport.ctx_switches_per_msg", float64(u.ctxSwitch)/float64(msgs))
			s.add("events_delivered_per_s", float64(chunkEvents)/u.wall.Seconds())
		}
		chunkSent, chunkEvents = sent, 0
		w = beginWindow()
	}
	for {
		for len(inflight) < udpOutstanding && more() {
			issue()
		}
		if len(inflight) == 0 {
			break
		}
		// Wake when the oldest event in flight is due to time out.
		oldest := time.Now()
		for p := range inflight {
			if p.start.Before(oldest) {
				oldest = p.start
			}
		}
		if !timeout.Stop() {
			select {
			case <-timeout.C:
			default:
			}
		}
		timeout.Reset(time.Until(oldest.Add(udpOpTimeout)))
		select {
		case p := <-o.done:
			if _, ok := inflight[p]; ok {
				finish(p, true)
				chunkEvents++
			}
		case <-timeout.C:
			for p := range inflight {
				if time.Since(p.start) >= udpOpTimeout {
					finish(p, false)
				}
			}
		}
		// The final chunk of a phase is kept if it is at least half a
		// chunk long, or the only one.
		if s != nil && time.Since(w.t0) >= udpChunk && more() {
			flush()
		}
	}
	if s == nil {
		return res
	}
	if time.Since(w.t0) >= udpChunk/2 || len(s.m["ops_per_s"]) == 0 {
		flush()
	}

	// Let the last acks land, then compare datagrams sent and received.
	var sent, recv uint64
	for settle := time.Now().Add(300 * time.Millisecond); ; {
		sent, recv = o.counters()
		if sent == recv || time.Now().After(settle) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if sent > recv {
		res.lost = sent - recv
	}
	msgs := sent - sent0
	s.add("udptransport.loss", float64(res.lost)/float64(msgs))
	s.add("udptransport.goroutines", float64(goroutines))
	if done := len(lat); done > 0 {
		l := durationsMS(lat)
		res.p50ms = quantile(l, 0.5)
		s.add("delivery_p50_ms", res.p50ms)
		s.add("udptransport.delivery_p99_ms", quantile(l, 0.99))
		s.add("udptransport.msgs_per_event", float64(msgs)/float64(done))
	}
	s.check(res.failed == 0, "phase A: %d of %d events not delivered everywhere within %v", res.failed, res.events, udpOpTimeout)
	return res
}

type phaseB struct {
	cycles, failed int
}

// phaseJoins is the membership phase: one at a time, a fresh node joins
// through a random live node and, once every window holds it, leaves
// politely again. The overlay under the joins therefore stays the set-up's
// own, with every top-node list pointing at live nodes: when the leaver
// was a random older node instead, one polite leave in five stalled for
// over a second (its report went to a top node that had left earlier —
// top lists are repaired lazily — and only ring probing noticed), which
// left a phase some ten joins to take a median of.
func (o *overlay) phaseJoins(s *sample, length time.Duration) phaseB {
	span := o.c.rec.begin(o.span, "udp_live/joins")
	defer o.c.rec.end(span)
	var res phaseB
	for deadline := time.Now().Add(length); time.Now().Before(deadline); {
		res.cycles++
		ok, err := o.joinOne()
		if err != nil {
			s.check(false, "phase B listen: %v", err)
			return res
		}
		if !ok || !o.leaveOne(len(o.nodes)-1) {
			res.failed++
		}
	}
	o.member.Store(nil)
	if len(o.joinLat) > 0 {
		l := durationsMS(o.joinLat)
		s.add("op_p50_ms", quantile(l, 0.5))
		s.add("udptransport.join_p99_ms", quantile(l, 0.99))
		s.add("udptransport.join_rpc_ms", quantile(durationsMS(o.rpcLat), 0.5))
	}
	s.check(res.failed == 0, "phase B: %d of %d leave/join cycles did not complete within %v", res.failed, res.cycles, udpOpTimeout)
	return res
}
