// Package udptransport is the socket Link under transport.Host — the
// deployment form of the protocol. It is the proof of the claim in the
// README: the core state machine never touches the network, so putting
// it on real sockets means supplying a clock, a Send and a reader, and
// nothing else. Every protocol message is one datagram in the
// internal/wire encoding; pointer lists too large for a datagram travel
// over a TCP sidecar bound to the same port number, so no message is
// ever truncated.
//
// Endpoint addressing: pointers carry real endpoints, packed into
// wire.Addr as IPv4:port (see wire.AddrFromIPv4), so a pointer received
// from any peer is immediately routable — exactly the paper's "a pointer
// consists of the corresponding node's IP address, nodeId, level, and
// attached info".
//
// Timing runs in real time: virtual des.Time maps 1:1 onto wall-clock
// nanoseconds since the node started. Production deployments use the
// paper's constants (30 s probes, 3 s ack timeouts); tests scale them
// down.
package udptransport

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"time"

	"peerwindow/internal/core"
	"peerwindow/internal/des"
	"peerwindow/internal/metrics"
	"peerwindow/internal/nodeid"
	"peerwindow/internal/transport"
	"peerwindow/internal/wire"
	"peerwindow/internal/xrand"
)

const (
	// maxDatagram bounds outgoing datagrams.
	maxDatagram = 60000
	// maxPointersPerDatagram bounds list payloads: ≥26 bytes per bare
	// pointer plus header slack under maxDatagram. Longer lists go over
	// the TCP sidecar.
	maxPointersPerDatagram = (maxDatagram - 64) / 30

	// maxBulkBytes is the largest sidecar transfer a receiver accepts.
	maxBulkBytes = 64 << 20
	// maxBulkConns caps concurrent sidecar transfers in each direction:
	// connections beyond it are refused inbound and not attempted
	// outbound (the protocol's retries cover both).
	maxBulkConns = 16
	// bulkTimeout bounds one sidecar transfer end to end.
	bulkTimeout = 10 * time.Second
)

// link is one node's UDP socket plus TCP sidecar.
type link struct {
	conn  *net.UDPConn
	tcp   *net.TCPListener
	host  *transport.Host
	start time.Time

	// ctx is cancelled by Close; it aborts sidecar dials and closes open
	// sidecar connections so wg drains promptly.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	// inbound and outbound are the sidecar's counting semaphores.
	inbound, outbound chan struct{}

	// sendBuf is the datagram encode buffer, reused across sends; only the
	// executor (Send) touches it.
	sendBuf []byte

	// reg holds the socket-level instruments.
	reg                  *metrics.Registry
	send, recv           [wire.MsgTopListResp + 1]*metrics.Counter
	sendBytes, recvBytes *metrics.Counter
	garbage, bulkReject  *metrics.Counter
	sendErrors           *metrics.Counter
	bulkSends            *metrics.Gauge
}

// Listen binds a UDP socket (addr like "127.0.0.1:0") with its TCP
// sidecar and starts a host over them. name seeds the identifier; budget
// is the collection budget in bit/s (0 keeps cfg's default).
func Listen(addr, name string, budget float64, cfg core.Config) (*transport.Host, error) {
	udpAddr, err := net.ResolveUDPAddr("udp4", addr)
	if err != nil {
		return nil, fmt.Errorf("udptransport: %w", err)
	}
	conn, err := net.ListenUDP("udp4", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("udptransport: %w", err)
	}
	local := conn.LocalAddr().(*net.UDPAddr) // IPv4: the socket is udp4
	// TCP sidecar on the same port number for bulk responses.
	tcp, err := net.ListenTCP("tcp4", &net.TCPAddr{IP: local.IP, Port: local.Port})
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("udptransport: tcp sidecar: %w", err)
	}
	if budget > 0 {
		cfg.ThresholdBits = budget
	}
	reg := metrics.NewRegistry()
	l := &link{
		conn:       conn,
		tcp:        tcp,
		start:      time.Now(),
		inbound:    make(chan struct{}, maxBulkConns),
		outbound:   make(chan struct{}, maxBulkConns),
		reg:        reg,
		sendBytes:  reg.Counter(metrics.MetricNetSendBytes),
		recvBytes:  reg.Counter(metrics.MetricNetRecvBytes),
		garbage:    reg.Counter(metrics.MetricNetGarbage),
		bulkReject: reg.Counter(metrics.MetricNetBulkRejected),
		sendErrors: reg.Counter(metrics.MetricNetSendErrors),
		bulkSends:  reg.Gauge(metrics.MetricNetBulkSends),
	}
	l.ctx, l.cancel = context.WithCancel(context.Background())
	for t := wire.MsgEvent; t <= wire.MsgTopListResp; t++ {
		l.send[t] = reg.Counter(metrics.MetricNetSendPrefix + t.String())
		l.recv[t] = reg.Counter(metrics.MetricNetRecvPrefix + t.String())
	}
	self := wire.Pointer{
		Addr: wire.AddrFromIPv4([4]byte(local.IP.To4()), uint16(local.Port)),
		ID:   nodeid.Hash([]byte(fmt.Sprintf("%s@%s", name, local))),
	}
	l.host = transport.NewHost(cfg, self, xrand.New(uint64(local.Port)*2654435761+1), l)
	l.wg.Add(2)
	go l.read()
	go l.accept()
	return l.host, nil
}

// Now implements transport.Link: real nanoseconds since start.
func (l *link) Now() des.Time { return des.Time(time.Since(l.start)) }

// Wall implements transport.Link: virtual time is wall time.
func (l *link) Wall(d des.Time) time.Duration { return time.Duration(d) }

// Metrics implements transport.Link.
func (l *link) Metrics() metrics.Snapshot { return l.reg.Snapshot() }

// Close implements transport.Link. The host calls it after its executor
// has stopped, so no Send races the wait.
func (l *link) Close() {
	l.cancel()
	l.conn.Close()
	l.tcp.Close()
	l.wg.Wait()
}

// read pumps datagrams into the host. Messages carry their sender's
// address, so the socket's is not asked for: net allocates a copy of it
// per datagram.
func (l *link) read() {
	defer l.wg.Done()
	buf := make([]byte, maxDatagram+1)
	for {
		nr, err := l.conn.Read(buf)
		if err != nil {
			return // socket closed
		}
		l.receive(buf[:nr], l.garbage)
	}
}

// receive decodes one inbound message — a datagram or a sidecar payload
// — and delivers it; what does not decode is counted in bad.
func (l *link) receive(b []byte, bad *metrics.Counter) {
	msg, err := wire.Unmarshal(b)
	if err != nil {
		bad.Inc()
		return
	}
	if msg.Type.Valid() {
		l.recv[msg.Type].Inc()
	}
	l.recvBytes.Add(uint64(len(b)))
	l.host.Deliver(msg)
}

// accept admits sidecar connections up to maxBulkConns at a time.
func (l *link) accept() {
	defer l.wg.Done()
	for {
		c, err := l.tcp.Accept()
		if err != nil {
			return // listener closed
		}
		select {
		case l.inbound <- struct{}{}:
			l.wg.Add(1)
			go l.recvBulk(c)
		default:
			l.bulkReject.Inc()
			c.Close()
		}
	}
}

// recvBulk reads one sidecar transfer: a 4-byte big-endian length prefix
// followed by one wire-encoded message.
func (l *link) recvBulk(c net.Conn) {
	defer l.wg.Done()
	defer func() { <-l.inbound }()
	defer c.Close()
	defer context.AfterFunc(l.ctx, func() { c.Close() })()
	c.SetReadDeadline(time.Now().Add(bulkTimeout))
	var hdr [4]byte
	_, err := io.ReadFull(c, hdr[:])
	size := int64(binary.BigEndian.Uint32(hdr[:]))
	if err != nil || size > maxBulkBytes {
		l.bulkReject.Inc()
		return
	}
	// ReadAll grows its buffer as bytes arrive, so the claimed size costs
	// nothing until the sender actually delivers it.
	buf, err := io.ReadAll(io.LimitReader(c, size))
	if err != nil || int64(len(buf)) != size {
		l.bulkReject.Inc()
		return
	}
	l.receive(buf, l.bulkReject)
}

// Send implements transport.Link: one datagram per message. Pointer
// lists too large for a datagram go over the TCP sidecar instead —
// bulk downloads of 100k-pointer windows are stream transfers, exactly
// as a production deployment would do them. Failures of either path
// count in net.send_errors; the protocol's ack timeouts do the retrying.
func (l *link) Send(msg wire.Message) {
	if msg.Type.Valid() {
		l.send[msg.Type].Inc()
	}
	ip, port := msg.To.IPv4()
	dst := netip.AddrPortFrom(netip.AddrFrom4(ip), port)
	if len(msg.Pointers) > maxPointersPerDatagram {
		// The transfer outlives this call, so it gets a buffer of its own.
		b := msg.Marshal()
		l.sendBytes.Add(uint64(len(b)))
		select {
		case l.outbound <- struct{}{}:
			l.wg.Add(1)
			go l.sendBulk(b, dst)
		default:
			l.sendErrors.Inc()
		}
		return
	}
	l.sendBuf = msg.AppendTo(l.sendBuf[:0])
	l.sendBytes.Add(uint64(len(l.sendBuf)))
	if _, err := l.conn.WriteToUDPAddrPort(l.sendBuf, dst); err != nil {
		l.sendErrors.Inc()
	}
}

// sendBulk ships one length-prefixed message over a short-lived TCP
// connection.
func (l *link) sendBulk(b []byte, dst netip.AddrPort) {
	defer l.wg.Done()
	defer func() { <-l.outbound }()
	ctx, cancel := context.WithTimeout(l.ctx, bulkTimeout)
	defer cancel()
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp4", dst.String())
	if err != nil {
		l.sendErrors.Inc()
		return
	}
	defer c.Close()
	defer context.AfterFunc(l.ctx, func() { c.Close() })()
	c.SetWriteDeadline(time.Now().Add(bulkTimeout))
	hdr := binary.BigEndian.AppendUint32(nil, uint32(len(b)))
	if _, err := (&net.Buffers{hdr, b}).WriteTo(c); err != nil {
		l.sendErrors.Inc()
		return
	}
	l.bulkSends.Add(1)
}
