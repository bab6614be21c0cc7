// Package locksafe exercises the held-lock analysis: blocking calls and
// channel operations inside critical sections are findings — including
// ones hidden behind helper calls, per the call-graph blocking facts —
// while the copy-release-then-block shape and calls to provably
// non-blocking callees are clean.
package locksafe

import "sync"

// transport.Send really blocks: it hands the frame to the network
// goroutine over a channel.
type transport struct{ out chan []byte }

func (t transport) Send(b []byte) { t.out <- b }

// quietSender.Send provably never blocks. Under the old name heuristic
// calling it under a lock needed a //pwlint:allow; the fact engine
// retires that.
type quietSender struct{ last []byte }

func (q *quietSender) Send(b []byte) { q.last = b }

type sender interface {
	Send(b []byte)
}

type host struct {
	mu    sync.Mutex
	state sync.RWMutex
	tr    transport
	quiet quietSender
	peers []string
	ch    chan int
}

func (h *host) badSend(b []byte) {
	h.mu.Lock()
	h.tr.Send(b) // want `call to pwfixture\.transport\.Send may block while h\.mu is held`
	h.mu.Unlock()
}

// flush hides the blocking send one call away — the old intraprocedural
// pass could not see through it.
func (h *host) flush(b []byte) {
	h.tr.Send(b)
}

func (h *host) badHelperSend(b []byte) {
	h.mu.Lock()
	h.flush(b) // want `call to pwfixture\.host\.flush may block while h\.mu is held`
	h.mu.Unlock()
}

func (h *host) badIfaceSend(s sender, b []byte) {
	h.mu.Lock()
	s.Send(b) // want `call to pwfixture\.sender\.Send \(resolving to pwfixture\.transport\.Send\) may block`
	h.mu.Unlock()
}

func (h *host) badChannelOps() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ch <- 1 // want `channel send while h\.mu is held`
	<-h.ch    // want `channel receive while h\.mu is held`
}

func (h *host) badUnderRLock(b []byte) {
	h.state.RLock()
	h.tr.Send(b) // want `call to pwfixture\.transport\.Send may block while h\.state is held`
	h.state.RUnlock()
}

func (h *host) badSelect() {
	h.mu.Lock()
	defer h.mu.Unlock()
	select { // want `select \(a blocking channel operation\) while h\.mu is held`
	case v := <-h.ch:
		_ = v
	default:
	}
}

// goodCopyThenSend is the required shape: snapshot under the lock,
// release, then do the blocking work.
func (h *host) goodCopyThenSend(b []byte) {
	h.mu.Lock()
	peers := append([]string(nil), h.peers...)
	h.mu.Unlock()
	_ = peers
	h.tr.Send(b)
	h.ch <- 1
}

// goodEarlyUnlockBranches releases on every path before blocking.
func (h *host) goodEarlyUnlockBranches(b []byte) {
	h.mu.Lock()
	if len(h.peers) == 0 {
		h.mu.Unlock()
		return
	}
	h.mu.Unlock()
	h.tr.Send(b)
}

// goodLiteralIsOwnContext: the function literal does not run while the
// lock is held, it only gets built there.
func (h *host) goodLiteralIsOwnContext(b []byte) func() {
	h.mu.Lock()
	defer h.mu.Unlock()
	return func() { h.tr.Send(b) }
}

// goodProvenQuiet: the callee is named Send but its blocking fact is
// false, so no diagnostic and no allow needed.
func (h *host) goodProvenQuiet(b []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.quiet.Send(b)
}

// pump blocks on its channel, but it runs on the goroutine startPump
// spawns: starting it does not block the spawner.
func (h *host) pump() { <-h.ch }

func (h *host) startPump() { go h.pump() }

func (h *host) goodSpawnUnderLock() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.startPump()
}

// event is what the notifiers below carry. Its own type keeps their
// Send methods apart from the []byte ones above: interface calls resolve
// by name and signature.
type event struct{ seq int }

// notifier's only implementations, counter and lastEvent, never block:
// an interface call judged by its in-set implementations alone is
// clean, although the method is named Send.
type notifier interface {
	Send(ev event)
}

type counter struct{ n int }

func (c *counter) Send(ev event) { c.n += ev.seq }

type lastEvent struct{ ev event }

func (l *lastEvent) Send(ev event) { l.ev = ev }

func (h *host) goodIfaceAllQuiet(n notifier) {
	h.mu.Lock()
	defer h.mu.Unlock()
	n.Send(event{seq: len(h.peers)})
}

// alarm is the same shape with one blocking implementation among quiet
// ones: siren hands the alarm to another goroutine.
type alarm struct{ level int }

type alarmer interface {
	Send(a alarm)
}

type mutedAlarm struct{ last alarm }

func (m *mutedAlarm) Send(a alarm) { m.last = a }

type siren struct{ out chan alarm }

func (s siren) Send(a alarm) { s.out <- a }

func (h *host) badIfaceOneLoud(a alarmer) {
	h.mu.Lock()
	defer h.mu.Unlock()
	a.Send(alarm{level: 1}) // want `call to pwfixture\.alarmer\.Send \(resolving to pwfixture\.siren\.Send\) may block while h\.mu is held`
}

func (h *host) allowedSend(b []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.tr.Send(b) //pwlint:allow locksafe the out channel is buffered deep enough for the window invariant
}
