package core

import (
	"strings"
	"testing"

	"peerwindow/internal/des"
	"peerwindow/internal/nodeid"
	"peerwindow/internal/wire"
)

// A node meets the network only through datagrams that wire.Unmarshal
// accepts, so no datagram may stop it or leave it in a state its own
// checks reject.

// hostileRows are single messages with a level or prefix length above
// nodeid.Bits, a value no eigenstring has: a cross-part top-list request,
// a peer-list request whose sender claims the level, and a join report
// whose subject does. Before the decoder checked the domain, the first
// two panicked in nodeid.EigenstringOf and the third was applied.
func hostileRows() []wire.Message {
	far := ptrAt("0110", 0, 77)
	far.Level = 200
	req := wire.Message{Type: wire.MsgTopListReq, From: 77, To: 1, AckID: 5, PartBits: 200}
	req.PartPrefix[0] = 0x80
	return []wire.Message{
		req,
		{Type: wire.MsgPeerListReq, From: 77, To: 1, AckID: 6, Sender: far},
		{Type: wire.MsgReport, From: 77, To: 1, AckID: 7,
			Event: wire.Event{Kind: wire.EventJoin, Subject: far, Seq: 1}},
	}
}

func TestHostileDatagramsAreRejected(t *testing.T) {
	for _, msg := range hostileRows() {
		t.Run(msg.Type.String(), func(t *testing.T) {
			env := newFakeEnv(5)
			n := newTopNode(t, env, ptrAt("0100", 0, 2))
			b := msg.Marshal()
			if msg.Type == wire.MsgTopListReq && len(b) != 42 {
				t.Fatalf("top-list request is %d bytes, want 42", len(b))
			}
			m, err := wire.Unmarshal(b)
			if err == nil {
				// What the node makes of it shows what the decoder let
				// through.
				n.HandleMessage(m)
				t.Fatalf("decoded; CheckInvariants after it: %v", n.CheckInvariants())
			}
			if !strings.Contains(err.Error(), "level or prefix length") {
				t.Fatalf("rejected for %v, not for the out-of-range field", err)
			}
		})
	}
}

// TestLevelClauseCatchesHostileTops puts an out-of-range level or part
// length where the peer list's own check does not look: a report ack's
// top pointer handed straight to HandleMessage, past the decoder, and a
// part-table row. CheckInvariants must name it.
func TestLevelClauseCatchesHostileTops(t *testing.T) {
	far := ptrAt("0110", 0, 77)
	far.Level = 200
	for name, tc := range map[string]struct {
		corrupt func(n *Node)
		want    string
	}{
		"report-ack top": {
			func(n *Node) {
				n.HandleMessage(wire.Message{Type: wire.MsgReportAck, From: 77, To: 1, AckID: 9,
					Pointers: []wire.Pointer{far}})
			},
			"top 60000000000000000000000000000000 has level 200",
		},
		"cross-part top": {
			func(n *Node) {
				part, _ := nodeid.ParseEigenstring("1")
				n.rememberCrossPart(part, []wire.Pointer{far})
			},
			"cross-part top 60000000000000000000000000000000 has level 200",
		},
		"part length": {
			func(n *Node) { n.crossTop = append(n.crossTop, crossPart{part: nodeid.Eigenstring{Len: 200}}) },
			"part table row of length 200",
		},
	} {
		t.Run(name, func(t *testing.T) {
			n := newTopNode(t, newFakeEnv(6), ptrAt("0100", 0, 2))
			tc.corrupt(n)
			if err := n.CheckInvariants(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckInvariants = %v, want %q", err, tc.want)
			}
		})
	}
}

// datagramNode builds the node FuzzDatagram feeds: joined at level 1 as a
// top node of part "0", with 64 peers at levels 1 to 4, two other tops
// and one part-table row for part "1".
func datagramNode() (*Node, *fakeEnv) {
	env := newFakeEnv(9)
	n := NewNode(quietConfig(), env, Observer{}, ptrAt("0000000", 1, 1))
	var peers, tops []wire.Pointer
	for i := 1; i <= 64; i++ {
		id, _ := nodeid.FromBitString("0" + bitString(i, 7) + "1")
		p := wire.Pointer{Addr: wire.Addr(100 + i), ID: id, Level: uint8(1 + i%4)}
		if i%16 == 0 {
			p.Level = 1
			tops = append(tops, p)
		}
		peers = append(peers, p)
	}
	n.Restore(1, peers, tops[:2])
	part, _ := nodeid.ParseEigenstring("1")
	n.rememberCrossPart(part, []wire.Pointer{ptrAt("1010", 1, 20), ptrAt("1100", 1, 21)})
	env.take()
	return n, env
}

// bitString renders the low width bits of v, most significant first.
func bitString(v, width int) string {
	b := make([]byte, width)
	for i := range b {
		b[i] = '0' + byte(v>>(width-1-i)&1)
	}
	return string(b)
}

// fuzzMaxDatagrams caps the datagrams FuzzDatagram decodes from one
// input, so one long input costs what a short one does.
const fuzzMaxDatagrams = 16

// FuzzDatagram cuts fuzzer bytes into datagrams, each a length byte and
// that many bytes, decodes each with wire.Unmarshal and hands every
// message that decodes to the node of datagramNode, advancing virtual
// time by a second between datagrams. The node must not panic and must
// pass CheckInvariants after each, and again once its pending sends have
// run out.
func FuzzDatagram(f *testing.F) {
	datagram := func(ms ...wire.Message) []byte {
		var out []byte
		for _, m := range ms {
			b := m.Marshal()
			out = append(append(out, byte(len(b))), b...)
		}
		return out
	}
	rows := hostileRows()
	for _, m := range rows {
		f.Add(datagram(m))
	}
	f.Add(datagram(rows...))
	// In-range traffic: a join event, a report, a peer-list and a
	// cross-part top-list request, a heartbeat and a top-list answer.
	joiner := ptrAt("0011", 2, 50)
	req := wire.Message{Type: wire.MsgTopListReq, From: 51, To: 1, AckID: 4, PartBits: 1}
	req.PartPrefix[0] = 0x80
	f.Add(datagram(
		wire.Message{Type: wire.MsgEvent, From: 101, To: 1, AckID: 1, Step: 2,
			Event: wire.Event{Kind: wire.EventJoin, Subject: joiner, Seq: 1}},
		wire.Message{Type: wire.MsgReport, From: 50, To: 1, AckID: 2,
			Event: wire.Event{Kind: wire.EventInfoChange, Subject: joiner, Seq: 2}},
		wire.Message{Type: wire.MsgPeerListReq, From: 50, To: 1, AckID: 3, Sender: joiner},
		req,
		wire.Message{Type: wire.MsgHeartbeat, From: 102, To: 1, AckID: 5},
		wire.Message{Type: wire.MsgTopListResp, From: 102, To: 1, AckID: 6,
			Pointers: []wire.Pointer{ptrAt("0101", 1, 60), joiner}},
	))
	f.Fuzz(func(t *testing.T, data []byte) {
		n, env := datagramNode()
		for i := 0; i < fuzzMaxDatagrams && len(data) > 0; i++ {
			l := min(int(data[0]), len(data)-1)
			b := data[1 : 1+l]
			data = data[1+l:]
			m, err := wire.Unmarshal(b)
			if err != nil {
				continue
			}
			n.HandleMessage(m)
			env.run(des.Second)
			if err := n.CheckInvariants(); err != nil {
				t.Fatalf("after datagram %d (%v): %v", i, m.Type, err)
			}
		}
		env.run(10 * n.cfg.AckTimeout)
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("after the pending sends ran out: %v", err)
		}
	})
}
