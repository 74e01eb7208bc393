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

// await adapts a one-shot ready hook to the scheduler's Suspend.
func await(register func(cb func())) core.M[core.Unit] {
	return core.Suspend(func(resume func(core.Unit)) {
		register(func() { resume(core.Unit{}) })
	})
}

// AcceptM accepts a connection, parking the thread until one is pending.
func (l *Listener) AcceptM() core.M[*Conn] {
	var try func() core.M[*Conn]
	try = func() core.M[*Conn] {
		return core.Bind(
			core.NBIO(func() acceptResult {
				c, err := l.TryAccept()
				return acceptResult{c, err}
			}),
			func(r acceptResult) core.M[*Conn] {
				if errors.Is(r.err, ErrWouldBlock) {
					return core.Then(await(l.OnAcceptable), try())
				}
				if r.err != nil {
					return core.Throw[*Conn](r.err)
				}
				return core.Return(r.c)
			},
		)
	}
	return try()
}

type acceptResult struct {
	c   *Conn
	err error
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
	var try func() core.M[int]
	try = func() core.M[int] {
		return core.Bind(
			core.NBIO(func() ioResult {
				n, err := c.TryRead(p)
				return ioResult{n, err}
			}),
			func(r ioResult) core.M[int] {
				if errors.Is(r.err, ErrWouldBlock) {
					return core.Then(await(c.OnRecvReady), try())
				}
				if r.err != nil {
					return core.Throw[int](r.err)
				}
				return core.Return(r.n)
			},
		)
	}
	return try()
}

type ioResult struct {
	n   int
	err error
}

// ReadFullM reads exactly len(p) bytes unless the stream ends first,
// returning the count read.
func (c *Conn) ReadFullM(p []byte) core.M[int] {
	var step func(got int) core.M[int]
	step = func(got int) core.M[int] {
		if got >= len(p) {
			return core.Return(got)
		}
		return core.Bind(c.ReadM(p[got:]), func(n int) core.M[int] {
			if n == 0 {
				return core.Return(got)
			}
			return step(got + n)
		})
	}
	return step(0)
}

// WriteM writes all of p, parking the thread while the send buffer is
// full, and returns len(p).
func (c *Conn) WriteM(p []byte) core.M[int] {
	total := len(p)
	var step func(rest []byte) core.M[int]
	step = func(rest []byte) core.M[int] {
		if len(rest) == 0 {
			return core.Return(total)
		}
		return core.Bind(
			core.NBIO(func() ioResult {
				n, err := c.TryWrite(rest)
				return ioResult{n, err}
			}),
			func(r ioResult) core.M[int] {
				if errors.Is(r.err, ErrWouldBlock) {
					return core.Then(await(c.OnSendReady), step(rest))
				}
				if r.err != nil {
					return core.Throw[int](r.err)
				}
				return step(rest[r.n:])
			},
		)
	}
	return step(p)
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

// WriteVM writes an I/O vector from a monadic thread without copying,
// parking while the send buffer is full. The vector's storage transfers
// to the stack and must not be mutated afterwards.
func (c *Conn) WriteVM(v iovec.Vec) core.M[core.Unit] {
	var step func(rest iovec.Vec) core.M[core.Unit]
	step = func(rest iovec.Vec) core.M[core.Unit] {
		if rest.Empty() {
			return core.Skip
		}
		return core.Bind(
			core.NBIO(func() ioResult {
				n, err := c.TryWriteV(rest)
				return ioResult{n, err}
			}),
			func(r ioResult) core.M[core.Unit] {
				if errors.Is(r.err, ErrWouldBlock) {
					return core.Then(await(c.OnSendReady), step(rest))
				}
				if r.err != nil {
					return core.Throw[core.Unit](r.err)
				}
				return step(rest.Drop(r.n))
			},
		)
	}
	return step(v)
}

// WriteCellVM returns a computation that, each time its trace is forced,
// queues all of the buffer *cell holds at that moment by reference via
// the vectored send path — the defunctionalized sibling of WriteVM for
// flattened state-machine callers (the httpd serve loop) that build the
// M once per connection and re-enter its trace once per response. The
// retry loop lives in a per-application state struct with one embedded
// NBIONode and one OnSendReady park trace (built the first time the send
// buffer is full), so steady-state sends allocate no nodes; the emitted
// node sequence — one NBIO attempt per partial transfer, a park plus a
// retry attempt per full buffer — is exactly WriteVM's, except that an
// empty buffer costs one attempt where WriteVM makes none. The buffer's
// storage transfers to the stack (never mutate it afterwards), and the
// delivered count is the total bytes queued.
func (c *Conn) WriteCellVM(cell *[]byte) core.M[int] {
	return func(k func(int) core.Trace) core.Trace {
		s := &writeCellState{c: c, cell: cell, k: k}
		s.node.Effect = s.try
		return &s.node
	}
}

type writeCellState struct {
	c      *Conn
	cell   *[]byte
	k      func(int) core.Trace
	rest   iovec.Vec
	total  int
	active bool
	node   core.NBIONode
	park   core.Trace // await(OnSendReady) resuming into node; built at the first full buffer
}

func (s *writeCellState) retry(core.Unit) core.Trace { return &s.node }

func (s *writeCellState) try() core.Trace {
	if !s.active {
		s.active = true
		s.rest = iovec.FromBytes(*s.cell)
		s.total = len(*s.cell)
	}
	n, err := s.c.TryWriteV(s.rest)
	if errors.Is(err, ErrWouldBlock) {
		if s.park == nil {
			s.park = await(s.c.OnSendReady)(s.retry)
		}
		return s.park
	}
	if err != nil {
		s.active, s.rest = false, iovec.Vec{}
		return &core.ThrowNode{Err: err}
	}
	s.rest = s.rest.Drop(n)
	if !s.rest.Empty() {
		return &s.node
	}
	total := s.total
	s.active, s.rest = false, iovec.Vec{} // reset: the trace re-enters per response
	return s.k(total)
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
