package tcp

import (
	"errors"

	"hybrid/internal/core"
	"hybrid/internal/iovec"
)

// This file is the user interface of the TCP stack for monadic threads —
// the paper's sys_tcp system call dressed as "the same high-level
// programming interfaces as standard socket operations" (§4.8), plus
// blocking variants for ordinary goroutines (used by tests and the
// baseline servers).
//
// Every blocking operation follows the Figure 10 pattern: try the
// nonblocking form; on ErrWouldBlock, park on the ready hook and retry.
// For monadic threads that loop lives in core.Poll: each *M operation is
// its Try* call plus ready, this file's one error classifier. The
// goroutine variants further down spell it as a plain for loop.

// await adapts a one-shot ready hook to the scheduler's Suspend.
func await(register func(cb func())) core.M[core.Unit] {
	return core.Suspend(func(resume func(core.Unit)) {
		register(func() { resume(core.Unit{}) })
	})
}

// parkOn is Poll's wait on a one-shot ready hook.
func parkOn(register func(cb func())) func() core.M[core.Unit] {
	return func() core.M[core.Unit] { return await(register) }
}

// ready classifies one Try* call for core.Poll: ErrWouldBlock parks; more
// (the call succeeded and the operation has more to move) retries at
// once; anything else ends the operation — with err, if it failed.
func ready(err error, more bool) (core.Readiness, error) {
	switch {
	case errors.Is(err, ErrWouldBlock):
		return core.Block, nil
	case err == nil && more:
		return core.Again, nil
	}
	return core.Done, err
}

// AcceptM accepts a connection, parking the thread until one is pending.
func (l *Listener) AcceptM() core.M[*Conn] {
	return core.Poll(func() (*Conn, core.Readiness, error) {
		c, err := l.TryAccept()
		r, err := ready(err, false)
		return c, r, err
	}, parkOn(l.OnAcceptable))
}

// ConnectM opens a connection to addr:port and parks the thread until the
// handshake completes (or fails, raising the error as an exception).
func (s *Stack) ConnectM(addr string, port uint16) core.M[*Conn] {
	return core.Bind(
		core.NBIOe(func() (*Conn, error) { return s.Connect(addr, port) }),
		func(c *Conn) core.M[*Conn] {
			return core.Then(
				await(c.OnEstablished),
				core.NBIOe(func() (*Conn, error) {
					if err := c.Err(); err != nil {
						return nil, err
					}
					return c, nil
				}),
			)
		},
	)
}

// ReadM reads at least one byte into p, parking the thread while no data
// is available. It returns 0 at end of stream.
func (c *Conn) ReadM(p []byte) core.M[int] {
	return core.Poll(func() (int, core.Readiness, error) {
		n, err := c.TryRead(p)
		r, err := ready(err, false)
		return n, r, err
	}, parkOn(c.OnRecvReady))
}

// ReadFullM reads exactly len(p) bytes unless the stream ends first,
// returning the count read.
func (c *Conn) ReadFullM(p []byte) core.M[int] {
	if len(p) == 0 {
		return core.Return(0)
	}
	return func(k func(int) core.Trace) core.Trace {
		got := 0 // this application's cursor; zero between messages
		return core.Poll(func() (int, core.Readiness, error) {
			n, err := c.TryRead(p[got:])
			got += n
			r, err := ready(err, n > 0 && got < len(p))
			if r == core.Done {
				n, got = got, 0
			}
			return n, r, err
		}, parkOn(c.OnRecvReady))(k)
	}
}

// WriteM writes all of p, parking the thread while the send buffer is
// full, and returns len(p). The stack copies what it queues, so the
// caller may reuse p once the count is delivered.
func (c *Conn) WriteM(p []byte) core.M[int] {
	if len(p) == 0 {
		return core.Return(0)
	}
	return func(k func(int) core.Trace) core.Trace {
		rest := p // this application's cursor: the unqueued suffix, p between messages
		return core.Poll(func() (int, core.Readiness, error) {
			n, err := c.TryWrite(rest)
			rest = rest[n:]
			r, err := ready(err, len(rest) > 0)
			if r == core.Done {
				rest = p
			}
			return len(p), r, err
		}, parkOn(c.OnSendReady))(k)
	}
}

// WriteVM writes an I/O vector from a monadic thread without copying,
// parking while the send buffer is full. The vector's storage transfers
// to the stack and must not be mutated afterwards.
func (c *Conn) WriteVM(v iovec.Vec) core.M[core.Unit] {
	if v.Empty() {
		return core.Skip
	}
	return core.Then(c.sendV(func() iovec.Vec { return v }), core.Skip)
}

// WriteCellVM is the vectored send of the buffer *cell holds each time
// the trace is forced, so a caller that sends message after message (the
// httpd serve loop, one response per request) applies it once per
// connection. The buffer is queued by reference: its storage transfers to
// the stack and is never mutated afterwards. The count delivered is the
// bytes queued; an empty buffer costs one attempt where WriteVM makes
// none.
func (c *Conn) WriteCellVM(cell *[]byte) core.M[int] {
	return c.sendV(func() iovec.Vec { return iovec.FromBytes(*cell) })
}

// sendV is the one vectored sender: each force queues all of the vector
// load yields at the first attempt.
func (c *Conn) sendV(load func() iovec.Vec) core.M[int] {
	return func(k func(int) core.Trace) core.Trace {
		var rest iovec.Vec // this application's cursor: the unqueued suffix, empty between messages
		total := 0
		return core.Poll(func() (int, core.Readiness, error) {
			if rest.Empty() {
				rest = load()
				total = rest.Len()
			}
			n, err := c.TryWriteV(rest)
			if n > 0 { // Drop rebuilds a chain's segment list even for 0
				rest = rest.Drop(n)
			}
			r, err := ready(err, !rest.Empty())
			if r == core.Done {
				rest = iovec.Vec{} // and the queued buffer is not pinned between messages
			}
			return total, r, err
		}, parkOn(c.OnSendReady))(k)
	}
}

// CloseM closes the send direction from a monadic thread.
func (c *Conn) CloseM() core.M[core.Unit] {
	return core.Do(c.Close)
}

// ---------------------------------------------------------------------------
// Blocking (goroutine) variants, used by tests and the thread-per-
// connection baseline servers.
//
// Contract: on a virtual clock, the calling goroutine must hold exactly
// one busy count on the stack's clock (spawn it with Stack.Go, which
// arranges this). Otherwise virtual time races ahead between two blocking
// calls — retransmission timers across the network fire "instantly" from
// the goroutine's point of view and connections appear to time out. On a
// real clock the holds are no-ops and any goroutine may call these.
// ---------------------------------------------------------------------------

// Go runs fn on a new goroutine registered as a runnable activity with
// the stack's clock, so fn may use the blocking API under virtual time.
func (s *Stack) Go(fn func()) {
	s.clock.Enter()
	go func() {
		defer s.clock.Exit()
		fn()
	}()
}

// blockOn parks the goroutine on a one-shot ready hook, releasing its
// busy hold while parked; the waker's hold transfers back on wake.
func (s *Stack) blockOn(register func(cb func())) {
	ch := make(chan struct{})
	register(func() {
		s.clock.Enter() // transfer a hold to the woken goroutine
		close(ch)
	})
	s.clock.Exit() // release this goroutine's hold while parked
	<-ch
}

// Accept blocks until a connection is pending.
func (l *Listener) Accept() (*Conn, error) {
	for {
		c, err := l.TryAccept()
		if !errors.Is(err, ErrWouldBlock) {
			return c, err
		}
		l.s.blockOn(l.OnAcceptable)
	}
}

// ConnectBlocking opens a connection and waits for the handshake.
func (s *Stack) ConnectBlocking(addr string, port uint16) (*Conn, error) {
	c, err := s.Connect(addr, port)
	if err != nil {
		return nil, err
	}
	s.blockOn(c.OnEstablished)
	if err := c.Err(); err != nil {
		return nil, err
	}
	return c, nil
}

// Read blocks until at least one byte is available (0 at EOF).
func (c *Conn) Read(p []byte) (int, error) {
	for {
		n, err := c.TryRead(p)
		if !errors.Is(err, ErrWouldBlock) {
			return n, err
		}
		c.s.blockOn(c.OnRecvReady)
	}
}

// Write blocks until all of p is queued.
func (c *Conn) Write(p []byte) (int, error) {
	total := 0
	for total < len(p) {
		n, err := c.TryWrite(p[total:])
		if errors.Is(err, ErrWouldBlock) {
			c.s.blockOn(c.OnSendReady)
			continue
		}
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// ReadFull blocks until len(p) bytes arrive or the stream ends.
func (c *Conn) ReadFull(p []byte) (int, error) {
	got := 0
	for got < len(p) {
		n, err := c.Read(p[got:])
		if err != nil {
			return got, err
		}
		if n == 0 {
			break
		}
		got += n
	}
	return got, nil
}

// WriteV is the blocking variant of WriteVM (Stack.Go discipline applies
// on a virtual clock).
func (c *Conn) WriteV(v iovec.Vec) error {
	for !v.Empty() {
		n, err := c.TryWriteV(v)
		if errors.Is(err, ErrWouldBlock) {
			c.s.blockOn(c.OnSendReady)
			continue
		}
		if err != nil {
			return err
		}
		v = v.Drop(n)
	}
	return nil
}
