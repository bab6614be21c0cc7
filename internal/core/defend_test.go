package core

import (
	"testing"

	"peerwindow/internal/des"
	"peerwindow/internal/wire"
	"peerwindow/internal/xrand"
)

// mesh connects a few nodes on one engine: a message reaches its
// addressee a fixed latency after Send, and every send is logged with
// its time.
type mesh struct {
	engine *des.Engine
	nodes  map[wire.Addr]*Node
	log    []meshSend
}

type meshSend struct {
	at  des.Time
	msg wire.Message
}

// meshEnv is one node's attachment to a mesh.
type meshEnv struct {
	m   *mesh
	rng *xrand.Source
}

const meshLatency = 10 * des.Millisecond

func (e meshEnv) Now() des.Time       { return e.m.engine.Now() }
func (e meshEnv) Rand() *xrand.Source { return e.rng }
func (e meshEnv) SetTimer(d des.Time, fn func()) Timer {
	return fakeTimer{e.m.engine.After(d, fn)}
}

func (e meshEnv) Send(msg wire.Message) {
	e.m.log = append(e.m.log, meshSend{e.m.engine.Now(), msg})
	if dst := e.m.nodes[msg.To]; dst != nil {
		e.m.engine.After(meshLatency, func() { dst.HandleMessage(msg) })
	}
}

// defendMesh restores three level-0 nodes that hold each other, a
// minute into the run, so each node's sequence number is far above the
// 1 a false leave report carries. v is the node the report names.
func defendMesh(t *testing.T) (m *mesh, v *Node, peers []*Node) {
	t.Helper()
	m = &mesh{engine: des.New(), nodes: make(map[wire.Addr]*Node)}
	m.engine.Run(des.Minute)
	ptrs := []wire.Pointer{ptrAt("0000", 0, 1), ptrAt("0100", 0, 2), ptrAt("1000", 0, 3)}
	var all []*Node
	for i, self := range ptrs {
		n := NewNode(quietConfig(), meshEnv{m, xrand.New(uint64(i + 1))}, Observer{}, self)
		m.nodes[self.Addr] = n
		all = append(all, n)
	}
	for i, n := range all {
		var others []wire.Pointer
		for j, p := range ptrs {
			if j != i {
				others = append(others, p)
			}
		}
		n.Restore(0, others, nil)
	}
	return m, all[2], all[:2]
}

// falseLeave hands peers[0] a leave report about v with sequence number
// seq, as a failure detector that wrongly gave v up would, and runs until
// the multicast has reached the other peer. Every forwarder drops v
// before it picks its targets, so v then hears the event from peers[0]
// directly, as from a forwarder that still held it. It returns the time
// v applied it.
func falseLeave(t *testing.T, m *mesh, v *Node, peers []*Node, seq uint64) des.Time {
	t.Helper()
	leave := wire.Event{Kind: wire.EventLeave, Subject: v.Self(), Seq: seq}
	peers[0].HandleMessage(wire.Message{
		Type: wire.MsgReport, From: 99, To: peers[0].Self().Addr, AckID: 1, Event: leave,
	})
	m.engine.Run(m.engine.Now() + meshLatency)
	v.HandleMessage(wire.Message{
		Type: wire.MsgEvent, From: peers[0].Self().Addr, To: v.Self().Addr, AckID: 2, Step: 1, Event: leave,
	})
	for _, p := range peers {
		if _, ok := p.Peers().Lookup(v.Self().ID); ok {
			t.Fatalf("node %d still holds v after the leave", p.Self().Addr)
		}
	}
	if !v.defendTimer.armed() {
		t.Fatal("v armed no self-defense")
	}
	return m.engine.Now()
}

// TestSelfDefenseReannounces: a joined node that hears a leave naming
// itself multicasts an EventRefresh about itself AckTimeout later, and
// its peers hold it again.
func TestSelfDefenseReannounces(t *testing.T) {
	m, v, peers := defendMesh(t)
	heard := falseLeave(t, m, v, peers, 1)
	m.engine.Run(heard + quietConfig().AckTimeout + des.Second)

	var refresh []meshSend
	for _, s := range m.log {
		if s.msg.From == v.Self().Addr && s.msg.Type == wire.MsgEvent &&
			s.msg.Event.Kind == wire.EventRefresh && s.msg.Event.Subject.ID == v.Self().ID {
			refresh = append(refresh, s)
		}
	}
	if len(refresh) == 0 {
		t.Fatal("v sent no refresh event about itself")
	}
	if want := heard + quietConfig().AckTimeout; refresh[0].at != want {
		t.Fatalf("refresh sent at %v, want AckTimeout after the leave, at %v", refresh[0].at, want)
	}
	for _, p := range peers {
		if _, ok := p.Peers().Lookup(v.Self().ID); !ok {
			t.Fatalf("node %d does not hold v again", p.Self().Addr)
		}
	}
}

// TestStoppedNodeDoesNotDefend: a node stopped before its self-defense
// deadline sends nothing, and its peers do not hold it again.
func TestStoppedNodeDoesNotDefend(t *testing.T) {
	m, v, peers := defendMesh(t)
	heard := falseLeave(t, m, v, peers, 1)
	v.Stop()
	stopped := len(m.log)
	m.engine.Run(heard + 2*quietConfig().AckTimeout)
	for _, s := range m.log[stopped:] {
		if s.msg.From == v.Self().Addr {
			t.Fatalf("stopped node sent %v at %v", s.msg.Type, s.at)
		}
	}
	for _, p := range peers {
		if _, ok := p.Peers().Lookup(v.Self().ID); ok {
			t.Fatalf("node %d holds the stopped node again", p.Self().Addr)
		}
	}
}

// TestSelfDefenseOutnumbersDetectorLeave: a real detector's leave
// carries the sequence after the newest one it applied (markDead), the
// very number a re-announcement at v.seq+1 would carry. Every peer would
// drop such a refresh as stale, so v must re-announce above the leave.
// Two false leaves heard before the self-defense fires are answered by
// that one re-announcement.
func TestSelfDefenseOutnumbersDetectorLeave(t *testing.T) {
	m, v, peers := defendMesh(t)
	seq := v.seq + 1
	heard := falseLeave(t, m, v, peers, seq)
	v.HandleMessage(wire.Message{
		Type: wire.MsgEvent, From: peers[1].Self().Addr, To: v.Self().Addr, AckID: 3, Step: 1,
		Event: wire.Event{Kind: wire.EventLeave, Subject: v.Self(), Seq: seq + 1},
	})
	m.engine.Run(heard + 10*quietConfig().AckTimeout)
	announced := map[uint64]bool{}
	for _, s := range m.log {
		if ev := s.msg.Event; s.msg.From == v.Self().Addr && ev.Kind == wire.EventRefresh && ev.Subject.ID == v.Self().ID {
			announced[ev.Seq] = true
			if ev.Seq <= seq+1 {
				t.Fatalf("v re-announced with sequence %d, not above the leave's %d", ev.Seq, seq+1)
			}
		}
	}
	if len(announced) != 1 {
		t.Fatalf("v re-announced %d times, want once", len(announced))
	}
	for _, p := range peers {
		if _, ok := p.Peers().Lookup(v.Self().ID); !ok {
			t.Fatalf("node %d does not hold v again", p.Self().Addr)
		}
	}
}
