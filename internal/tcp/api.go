package tcp

import (
	"errors"

	"hybrid/internal/core"
	"hybrid/internal/iovec"
)

// This file is the user interface of the TCP stack: the paper's sys_tcp
// system call dressed as "the same high-level programming interfaces as
// standard socket operations" (§4.8), for monadic threads. It is the only
// blocking spelling; a goroutine that wants the stack drives the Try*
// calls and ready hooks itself.
//
// Every blocking operation follows the Figure 10 pattern: try the
// nonblocking form; on ErrWouldBlock, park on the ready hook and retry.
// That loop lives in core.Poll: each *M operation is its Try* call plus
// ready, this file's one error classifier.

// await adapts a one-shot ready hook to the scheduler's Suspend.
func await(register func(cb func())) core.M[core.Unit] {
	return core.Suspend(func(resume func(core.Unit)) {
		register(func() { resume(core.Unit{}) })
	})
}

// parkOn is Poll's wait on a one-shot ready hook: the park record's Wake
// is the hook's callback.
func parkOn(register func(cb func())) func(*core.WaitNode) func() {
	return func(w *core.WaitNode) func() {
		wake := w.Wake
		return func() { register(wake) }
	}
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
