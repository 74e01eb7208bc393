package tcp

import (
	"bytes"
	"errors"

	"hybrid/internal/core"
	"hybrid/internal/iovec"
	"hybrid/internal/waitq"
)

// This file is the user interface of the TCP stack: the paper's sys_tcp
// system call dressed as "the same high-level programming interfaces as
// standard socket operations" (§4.8), for monadic threads. It is the only
// blocking spelling; a goroutine that wants the stack drives the Try*
// calls and ready hooks itself.
//
// Every blocking operation follows the Figure 10 pattern: try the
// nonblocking form; on ErrWouldBlock, park on the ready hook and retry.
// That loop lives in core.Poll. An application of an *M operation is one
// record: core's spine, parkOn's arm on the hook, and the Try* call's
// arguments and cursor, classified by ready, this file's one classifier.

// parkOn is a record's arm: x's one-shot ready hook register, linking
// the record's waiter, whose target is the park record. The hook is a
// method expression, so a record holds it without a method value.
type parkOn[T any] struct {
	x        T
	register func(T, *waitq.Waiter)
	w        waitq.Waiter
}

func (p *parkOn[T]) Arm(w *core.WaitNode) {
	p.w.Target = w
	p.register(p.x, &p.w)
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
	return func(k func(*Conn) core.Trace) core.Trace {
		return core.Poll(&acceptRec{parkOn: parkOn[*Listener]{x: l, register: (*Listener).OnAcceptable}}, k)
	}
}

type acceptRec struct {
	parkOn[*Listener]
	core.PollSpine[*Conn]
}

func (a *acceptRec) Attempt() (*Conn, core.Readiness, error) {
	c, err := a.x.TryAccept()
	r, err := ready(err, false)
	return c, r, err
}

// ConnectM opens a connection to addr:port and parks the thread until the
// handshake completes (or fails, raising the error as an exception).
func (s *Stack) ConnectM(addr string, port uint16) core.M[*Conn] {
	return func(k func(*Conn) core.Trace) core.Trace {
		return core.Poll(&connectRec{parkOn: parkOn[*Conn]{register: (*Conn).OnEstablished}, s: s, addr: addr, port: port}, k)
	}
}

// connectRec's first attempt opens the connection and parks on its
// establish hook; the one after the wake delivers it or its error.
type connectRec struct {
	parkOn[*Conn]
	core.PollSpine[*Conn]
	s    *Stack
	addr string
	port uint16
}

func (r *connectRec) Attempt() (*Conn, core.Readiness, error) {
	if c := r.x; c != nil {
		r.x = nil
		return c, core.Done, c.Err()
	}
	var err error
	if r.x, err = r.s.Connect(r.addr, r.port); err != nil {
		return nil, core.Done, err
	}
	return nil, core.Block, nil
}

// ReadM reads at least one byte into p, parking the thread while no data
// is available. It returns 0 at end of stream.
func (c *Conn) ReadM(p []byte) core.M[int] { return c.read(p, false) }

// ReadFullM reads exactly len(p) bytes unless the stream ends first,
// returning the count read.
func (c *Conn) ReadFullM(p []byte) core.M[int] {
	if len(p) == 0 {
		return core.Return(0)
	}
	return c.read(p, true)
}

func (c *Conn) read(p []byte, full bool) core.M[int] {
	return func(k func(int) core.Trace) core.Trace {
		return core.Poll(&readRec{parkOn: parkOn[*Conn]{x: c, register: (*Conn).OnRecvReady}, p: p, full: full}, k)
	}
}

type readRec struct {
	parkOn[*Conn]
	core.PollSpine[int]
	p    []byte
	got  int // ReadFullM's cursor: the count read, zero between messages
	full bool
}

func (r *readRec) Attempt() (int, core.Readiness, error) {
	n, err := r.x.TryRead(r.p[r.got:])
	if r.full {
		r.got += n
	}
	rd, err := ready(err, r.full && n > 0 && r.got < len(r.p))
	if r.full && rd == core.Done {
		n, r.got = r.got, 0
	}
	return n, rd, err
}

// WriteM writes all of p, parking the thread while the send buffer is
// full, and returns len(p). Each message is copied once as it starts and
// the copy queued by reference, so the caller may reuse p once the count
// is delivered.
func (c *Conn) WriteM(p []byte) core.M[int] {
	if len(p) == 0 {
		return core.Return(0)
	}
	return sendV(c, func() iovec.Vec { return iovec.FromBytes(bytes.Clone(p)) })
}

// WriteVM writes an I/O vector from a monadic thread without copying,
// parking while the send buffer is full, and returns the bytes queued.
// The vector's storage transfers to the stack and must not be mutated
// afterwards.
func (c *Conn) WriteVM(v iovec.Vec) core.M[int] {
	if v.Empty() {
		return core.Return(0)
	}
	return sendV(c, func() iovec.Vec { return v })
}

// WriteCellVM is the vectored send of the buffer *cell holds each time
// the trace is forced, so a caller that sends message after message (the
// httpd serve loop, one response per request) applies it once per
// connection. The buffer is queued by reference: its storage transfers to
// the stack and is never mutated afterwards. The count delivered is the
// bytes queued; an empty buffer costs one attempt where WriteVM makes
// none.
func (c *Conn) WriteCellVM(cell *[]byte) core.M[int] {
	return sendV(c, func() iovec.Vec { return iovec.FromBytes(*cell) })
}

// sendV is the one vectored sender: each force queues all of the vector
// load yields at the first attempt, and delivers its size.
func sendV(c *Conn, load func() iovec.Vec) core.M[int] {
	return func(k func(int) core.Trace) core.Trace {
		return core.Poll(&sendRec{parkOn: parkOn[*Conn]{x: c, register: (*Conn).OnSendReady}, load: load}, k)
	}
}

type sendRec struct {
	core.PollSpine[int]
	parkOn[*Conn]
	load  func() iovec.Vec
	rest  iovec.Vec // the cursor: the unqueued suffix, empty between messages
	total int       // the size of rest's message
}

func (s *sendRec) Attempt() (int, core.Readiness, error) {
	if s.rest.Empty() {
		s.rest = s.load()
		s.total = s.rest.Len()
	}
	n, err := s.x.TryWriteV(s.rest)
	s.rest = s.rest.Drop(n)
	r, err := ready(err, !s.rest.Empty())
	if r == core.Done {
		s.rest = iovec.Vec{} // and the queued buffer is not pinned between messages
	}
	return s.total, r, err
}

// CloseM closes the send direction from a monadic thread.
func (c *Conn) CloseM() core.M[core.Unit] {
	return core.Do(c.Close)
}
