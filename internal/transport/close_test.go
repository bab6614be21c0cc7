package transport_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"peerwindow/internal/des"
	"peerwindow/internal/metrics"
	"peerwindow/internal/nodeid"
	"peerwindow/internal/transport"
	"peerwindow/internal/wire"
	"peerwindow/internal/xrand"
)

// sinkLink is a Link whose receiving goroutines belong to the test: Send
// only counts, and counts again in late once closed is set.
type sinkLink struct {
	start      time.Time
	closed     atomic.Bool
	sent, late atomic.Uint64
}

func (l *sinkLink) Now() des.Time             { return des.Time(time.Since(l.start)) }
func (l *sinkLink) Metrics() metrics.Snapshot { return metrics.Snapshot{} }
func (l *sinkLink) Close()                    {}

func (l *sinkLink) Send(wire.Message) {
	l.sent.Add(1)
	if l.closed.Load() {
		l.late.Add(1)
	}
}

// TestCloseWhileDeliveringAndFiring: Close returns while four goroutines
// hand the host heartbeats (each answered through Send) and a timer
// re-arms itself every 50 µs, and once it has returned nothing runs on
// the node: no answer is sent and no timer callback runs, although the
// deliveries go on.
func TestCloseWhileDeliveringAndFiring(t *testing.T) {
	link := &sinkLink{start: time.Now()}
	self := wire.Pointer{Addr: 1, ID: nodeid.Hash([]byte("closer"))}
	h := transport.NewHost(realTimeConfig(), self, xrand.New(1), link)
	h.Bootstrap()

	var ticks, lateTicks atomic.Uint64
	var tick func()
	tick = func() {
		ticks.Add(1)
		if link.closed.Load() {
			lateTicks.Add(1)
		}
		h.SetTimer(50*des.Microsecond, tick)
	}
	h.Call(func() { h.SetTimer(0, tick) })

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(from wire.Addr) {
			defer wg.Done()
			msg := wire.Message{Type: wire.MsgHeartbeat, From: from, To: self.Addr}
			for {
				select {
				case <-stop:
					return
				default:
				}
				msg.AckID++
				h.Deliver(msg)
			}
		}(wire.Addr(2 + i))
	}
	eventually(t, "deliveries are answered and the timer fires", func() bool {
		return link.sent.Load() > 1000 && ticks.Load() > 20
	})

	closed := make(chan struct{})
	go func() {
		h.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return while deliveries and the timer were running")
	}
	link.closed.Store(true)
	time.Sleep(20 * time.Millisecond) // deliveries go on; the timer would be due 400 times
	close(stop)
	wg.Wait()
	if n := link.late.Load(); n > 0 {
		t.Errorf("%d messages sent after Close returned", n)
	}
	if n := lateTicks.Load(); n > 0 {
		t.Errorf("%d timer callbacks ran after Close returned", n)
	}
	if got := h.Level(); got != 0 {
		t.Errorf("Level() after Close = %d", got)
	}
}
