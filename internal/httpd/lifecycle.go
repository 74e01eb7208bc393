package httpd

import (
	"fmt"
	"sync"

	"hybrid/internal/core"
	"hybrid/internal/vclock"
)

// LifecycleConfig bounds each phase of a connection's life with a
// deadline on one owned clock timer. The defense against slow, idle, and
// hostile peers is structural: every connection carries exactly one
// timer, bound once and re-armed in place at each phase transition, so
// ten thousand parked keep-alive connections cost ten thousand clock
// events and nothing else, and a re-arm allocates nothing. A deadline
// that fires sheds the connection from outside its handler thread
// (Shedder); the thread's blocked I/O fails and it unwinds through the
// server's normal exception path.
//
// Zero fields disable that phase's deadline. A nil LifecycleConfig (the
// ServerConfig default) keeps the server's trace shape byte-identical
// to the unhardened implementation.
type LifecycleConfig struct {
	// IdleTimeout reaps keep-alive connections that sit between requests
	// (or fresh connections that never send a byte) — the idle-flood
	// defense. The clock starts when the connection opens or a response
	// completes, and stops at the first byte of the next request head.
	IdleTimeout vclock.Duration
	// HeaderTimeout is the total budget to assemble one request head,
	// counted from its first byte. It is deliberately not reset by
	// progress: a slow-loris peer trickling one byte per interval renews
	// any per-read deadline forever but exhausts this one on schedule.
	HeaderTimeout vclock.Duration
	// BodyTimeout is the total budget to drain a request's declared body
	// (Content-Length). Every server drains a declared body, so the next
	// request is framed where it starts; this only bounds how long a peer
	// may take to send it.
	BodyTimeout vclock.Duration
	// WriteStallTimeout bounds progress while writing the response: each
	// completed write re-arms it, so a legitimate slow client streaming
	// a large file lives on, while a peer that stops reading (a
	// read-stall attack pinning the response in the send buffer) is shed
	// once no write completes for this long.
	WriteStallTimeout vclock.Duration
}

// enabled reports whether any phase deadline is armed.
func (c *LifecycleConfig) enabled() bool {
	return c != nil && (c.IdleTimeout > 0 || c.HeaderTimeout > 0 ||
		c.BodyTimeout > 0 || c.WriteStallTimeout > 0)
}

// Shedder is an optional Transport capability: Shed tears the connection
// down immediately, synchronously, from outside its handler thread — the
// lever a lifecycle deadline pulls on expiry. Both built-in transports
// implement it; a transport that does not cannot be shed, so lifecycle
// deadlines are inert on it.
type Shedder interface {
	Shed()
}

// Shed aborts the TCP connection (RST path): pending reads and writes
// fail immediately and no TIME_WAIT state lingers for the attacker.
func (t TCPTransport) Shed() { t.Conn.Abort() }

// Shed closes the kernel socket out from under the handler.
func (s SockTransport) Shed() { _ = s.IO.Kernel().Close(s.FD) }

// Connection lifecycle phases, for deadline accounting.
const (
	phaseIdle = iota
	phaseHeader
	phaseBody
	phaseWrite
)

// connWatch is one connection's lifecycle watchdog: a single owned clock
// timer plus the phase it guards. Handler-side transitions (to, progress,
// cancel) run on worker threads; fire runs from clock dispatch. The
// mutex orders them, and serializes the timer's Reset and Stop; the
// clock's own lock is never held while it calls into the watch, and the
// watch may call into the clock while holding its lock, so there is no
// cycle. On a real clock a Stop can miss a callback already under way,
// so fire re-checks the deadline of the latest arm.
type connWatch struct {
	s  *Server
	sh Shedder
	lc *LifecycleConfig

	mu    sync.Mutex
	tm    *vclock.Timer // bound to fire at the first arm
	due   vclock.Time   // the latest arm's deadline
	phase uint8
	done  bool // shed fired or connection closed: no more arming
}

// arm (re-)arms the timer d from now; the caller holds mu.
func (w *connWatch) arm(d vclock.Duration) {
	clk := w.s.io.Clock()
	if w.tm == nil {
		w.tm = clk.NewTimer(w.fire)
	}
	w.due = clk.Now() + vclock.Time(d)
	w.tm.Reset(d)
}

// to moves the watch to a phase, re-arming the timer with that phase's
// budget (or stopping it when the phase has none).
func (w *connWatch) to(phase uint8, d vclock.Duration) {
	w.mu.Lock()
	if w.done {
		w.mu.Unlock()
		return
	}
	w.phase = phase
	if d > 0 {
		w.arm(d)
	} else {
		w.tm.Stop()
	}
	w.mu.Unlock()
}

func (w *connWatch) toIdle() { w.to(phaseIdle, w.lc.IdleTimeout) }

// onBytes notes request bytes arriving: the first bytes of a new head
// move the watch from the idle budget to the header budget. Later reads
// of the same head leave the header deadline alone — it is a total
// budget, which is the slow-loris defense.
func (w *connWatch) onBytes() {
	w.mu.Lock()
	idle := !w.done && w.phase == phaseIdle
	w.mu.Unlock()
	if idle {
		w.to(phaseHeader, w.lc.HeaderTimeout)
	}
}

func (w *connWatch) toBody() { w.to(phaseBody, w.lc.BodyTimeout) }

// toWrite enters the response phase with no deadline armed: the stall
// clock starts at the first completed write (progress), so time the
// server spends producing the response — a queued disk read, say — is
// never charged to the peer. A peer that reads nothing still cannot
// hide: small responses fit the socket buffer, complete, and hand the
// connection to the idle deadline; large ones block a write after the
// first completion, and the armed stall deadline sheds them.
func (w *connWatch) toWrite() { w.to(phaseWrite, 0) }

// progress arms or renews the write-stall deadline after a completed
// write.
func (w *connWatch) progress() {
	w.mu.Lock()
	if !w.done && w.phase == phaseWrite && w.lc.WriteStallTimeout > 0 {
		w.arm(w.lc.WriteStallTimeout)
	}
	w.mu.Unlock()
}

// wrote is the write-completion hook: progress, passing the count through.
func (w *connWatch) wrote(n int) int { w.progress(); return n }

// cancel disarms the watch for good (connection closing normally or
// through the exception path).
func (w *connWatch) cancel() {
	w.mu.Lock()
	w.done = true
	w.tm.Stop()
	w.mu.Unlock()
}

// fire is the deadline expiry: count the phase, then shed. It runs from
// clock dispatch, so it must not block; Shed is synchronous teardown.
func (w *connWatch) fire() {
	w.mu.Lock()
	if w.done || w.s.io.Clock().Now() < w.due {
		w.mu.Unlock()
		return
	}
	w.done = true
	phase := w.phase
	w.mu.Unlock()
	switch phase {
	case phaseIdle:
		w.s.reapedIdle.Inc()
	case phaseHeader:
		w.s.shedHeader.Inc()
	case phaseBody:
		w.s.shedBody.Inc()
	case phaseWrite:
		w.s.shedWrite.Inc()
	}
	w.sh.Shed()
}

// watchConn attaches a lifecycle watch to a connection's transport,
// returning the wrapped transport (whose writes renew the write-stall
// deadline) and the watch. Transports that cannot be shed get no watch:
// there is no safe lever to pull on expiry.
func (s *Server) watchConn(t Transport) (Transport, *connWatch) {
	if !s.cfg.Lifecycle.enabled() {
		return t, nil
	}
	sh, ok := t.(Shedder)
	if !ok {
		return t, nil
	}
	w := &connWatch{s: s, sh: sh, lc: s.cfg.Lifecycle}
	return watchedTransport{t: t, w: w}, w
}

// watchedTransport threads write completions to the lifecycle watch and
// is otherwise the transport it wraps: lifecycle is a decorator, not a
// second serve path. The wrapping is pure continuation composition
// (core.Map adds no trace nodes), so the watched connection schedules
// exactly like the plain one.
type watchedTransport struct {
	t Transport
	w *connWatch
}

func (x watchedTransport) Read(p []byte) core.M[int] { return x.t.Read(p) }

func (x watchedTransport) Write(p []byte) core.M[int] {
	return core.Map(x.t.Write(p), x.w.wrote)
}

func (x watchedTransport) WriteCell(cell *[]byte) core.M[int] {
	return core.Map(x.t.WriteCell(cell), x.w.wrote)
}

func (x watchedTransport) Close() core.M[core.Unit] { return x.t.Close() }

// drainBody discards a request's declared body (HeadBuffer.startBody);
// under lifecycle mode the body-phase deadline bounds it, so a trickled
// body cannot wedge the connection. Returns nil when the request declares
// no body (the caller skips straight to respond).
func (c *conn) drainBody() core.M[core.Unit] {
	cl, rest := c.hb.startBody(&c.req)
	if cl == 0 {
		return nil
	}
	if c.w != nil {
		c.w.toBody()
	}
	// Declared past the early return: the loop captures it, so it lives
	// on the heap, and a request without a body must not pay for it.
	remaining := rest
	var loop func() core.M[core.Unit]
	loop = func() core.M[core.Unit] {
		if remaining <= 0 {
			return core.Skip
		}
		return core.Bind(c.t.Read(c.buf[:]), func(n int) core.M[core.Unit] {
			if n == 0 {
				return core.Throw[core.Unit](fmt.Errorf("%w: stream ended %d bytes into a %d-byte body",
					ErrMalformedRequest, cl-remaining, cl))
			}
			if int64(n) > remaining {
				// Pipelined bytes past the body belong to the next head.
				c.hb.pushBack(c.buf[remaining:n])
				remaining = 0
				return core.Skip
			}
			remaining -= int64(n)
			return loop()
		})
	}
	return loop()
}
