// Package hio (hybrid I/O) plugs the simulated kernel's asynchronous I/O
// interfaces into the monadic runtime, following §4.5 of the paper: the
// sys_epoll_wait and sys_aio_read system calls, and the library of
// blocking-style wrappers (sock_accept, sock_send, …) that hide the
// nonblocking retry loop from application threads. The loop itself —
// Figure 10 — is written once, as core.Poll; a wrapper here is a record,
// one per application of its M, holding its nonblocking kernel call's
// arguments and cursor, classified by this package's ready and armed by
// its fdWait. An AIO call is one record too, its park's arm: the park,
// request and continuation.
//
// The paper's worker_epoll (Figure 16) harvests readiness events and
// writes each thread back to the ready queue. The simulated kernel makes
// readiness synchronously, inside the call that causes it, so there is
// nothing to harvest: sys_epoll_wait links the waiter of the thread's
// record, whose target is its park record, on the kernel's wait list, and
// the kernel wakes it right there — in both timing domains, with no
// event-loop goroutine of its own.
package hio

import (
	"errors"

	"hybrid/internal/core"
	"hybrid/internal/kernel"
	"hybrid/internal/vclock"
	"hybrid/internal/waitq"
)

// IO binds a monadic runtime to a kernel instance. A program may create
// several on one kernel; they share nothing but the kernel.
type IO struct {
	rt *core.Runtime
	k  *kernel.Kernel
	fs *kernel.FS
}

// New binds the IO layer; it starts nothing. fs may be nil if no file
// I/O is used.
func New(rt *core.Runtime, k *kernel.Kernel, fs *kernel.FS) *IO {
	return &IO{rt: rt, k: k, fs: fs}
}

// Close is a no-op: an IO owns no goroutine or device to shut down. It is
// kept for the benchmark's fixtures, which call it.
func (io *IO) Close() {}

// Kernel reports the bound kernel.
func (io *IO) Kernel() *kernel.Kernel { return io.k }

// Clock reports the kernel's timing domain.
func (io *IO) Clock() vclock.Clock { return io.k.Clock() }

// Result pairs a value with an error: what a caller that answers a
// failure itself (the server's disk path, which retries and degrades)
// takes from a call instead of an exception.
type Result[A any] struct {
	Val A
	Err error
}

// EpollWait blocks the thread until fd is ready for one of the events in
// mask, returning the events that fired (the paper's sys_epoll_wait).
func (io *IO) EpollWait(fd kernel.FD, mask kernel.Event) core.M[kernel.Event] {
	return func(k func(kernel.Event) core.Trace) core.Trace {
		return core.Poll(&epollRec{fdWait: fdWait{io: io, fd: fd, mask: mask}}, k)
	}
}

// epollRec's first attempt parks; the one after the wake reads the event
// its watch fired with, or the error its arm's watch was refused with.
type epollRec struct {
	fdWait
	core.PollSpine[kernel.Event]
	err error
}

func (e *epollRec) Arm(w *core.WaitNode) {
	e.w.Target = w
	if e.err = e.io.k.Watch(e.fd, e.mask, &e.w); e.err != nil {
		w.Wake()
	}
}

func (e *epollRec) Attempt() (kernel.Event, core.Readiness, error) {
	ev, err := kernel.Event(e.w.Event), e.err
	if ev == 0 && err == nil {
		return 0, core.Block, nil
	}
	e.w.Event, e.err = 0, nil
	return ev, core.Done, err
}

// CloseFD closes a descriptor.
func (io *IO) CloseFD(fd kernel.FD) core.M[core.Unit] {
	return core.Do(func() { _ = io.k.Close(fd) })
}

// ---------------------------------------------------------------------------
// Blocking-style wrappers (Figure 10)
// ---------------------------------------------------------------------------
//
// Each wrapper is its nonblocking kernel call under core.Poll. A record's
// Attempt leaves its cursor clean whenever ready reports Done.

// ready classifies one nonblocking call for core.Poll: EAGAIN parks; EINTR
// (the signal landed before the transfer) and more (the call succeeded
// and the operation has more to move) retry at once; anything else ends
// the operation — with err, if it failed.
func ready(err error, more bool) (core.Readiness, error) {
	switch {
	case err == nil && !more:
		return core.Done, nil
	case err == nil, errors.Is(err, kernel.ErrIntr):
		return core.Again, nil
	case errors.Is(err, kernel.ErrAgain):
		return core.Block, nil
	}
	return core.Done, err
}

// fdWait is a record's arm: sys_epoll_wait for mask on fd, linking the
// record's waiter, whose target is the park record. A descriptor the
// kernel will not watch (closed under the thread) wakes the record at
// once, and the retried call reports the same ErrBadFD.
type fdWait struct {
	io   *IO
	fd   kernel.FD
	mask kernel.Event
	w    waitq.Waiter
}

func (f *fdWait) Arm(w *core.WaitNode) {
	f.w.Target = w
	if f.io.k.Watch(f.fd, f.mask, &f.w) != nil {
		w.Wake()
	}
}

// SockAccept accepts a connection on a listening descriptor, waiting for
// readiness when none is pending — the paper's Figure 10.
func (io *IO) SockAccept(listenFD kernel.FD) core.M[kernel.FD] {
	return func(k func(kernel.FD) core.Trace) core.Trace {
		return core.Poll(&acceptRec{fdWait: fdWait{io: io, fd: listenFD, mask: kernel.EventRead}}, k)
	}
}

type acceptRec struct {
	fdWait
	core.PollSpine[kernel.FD]
}

func (a *acceptRec) Attempt() (kernel.FD, core.Readiness, error) {
	fd, err := a.io.k.Accept(a.fd)
	if errors.Is(err, kernel.ErrConnAborted) {
		// The pending connection died in the backlog: not the
		// listener's end, take the next one.
		return fd, core.Again, nil
	}
	r, err := ready(err, false)
	return fd, r, err
}

// SockRead reads at least one byte into p, waiting for readiness as
// needed. It returns 0 at end of stream.
func (io *IO) SockRead(fd kernel.FD, p []byte) core.M[int] {
	return io.sock(kernel.EventRead, fd, &p, false)
}

// SockReadCell is SockRead into the buffer *cell holds each time the
// trace is forced: a caller that reads message after message applies it
// once and moves the window between reads. A window onto Sink discards
// instead (kernel.Discard): its bytes leave the socket uncopied.
func (io *IO) SockReadCell(fd kernel.FD, cell *[]byte) core.M[int] {
	return io.sock(kernel.EventRead, fd, cell, false)
}

// sink backs Sink. A read into it is a discard, so nothing ever writes it.
var sink [kernel.DefaultSocketBuffer]byte

// Sink is a read window of up to n bytes that keeps nothing: SockRead and
// SockReadCell drop what they would read into it (stream sockets only).
// It caps n at a full socket ring; nothing else may read into it.
func Sink(n int) []byte { return sink[:min(n, len(sink))] }

// SockReadFull reads exactly len(p) bytes unless the stream ends first;
// it returns the number read.
func (io *IO) SockReadFull(fd kernel.FD, p []byte) core.M[int] {
	if len(p) == 0 {
		return core.Return(0)
	}
	return io.sock(kernel.EventRead, fd, &p, true)
}

// SockSend writes all of p, waiting for buffer space as needed (the
// paper's sock_send).
func (io *IO) SockSend(fd kernel.FD, p []byte) core.M[int] {
	if len(p) == 0 {
		return core.Return(0)
	}
	return io.sock(kernel.EventWrite, fd, &p, false)
}

// SockSendCell is SockSend of the buffer *cell holds each time the trace
// is forced, so a caller that sends message after message (the httpd
// serve loop, one response per request) applies it once per connection.
// *cell must not be mutated until the count is delivered. An empty buffer
// costs one attempt where SockSend makes none. With lend set each write
// is a kernel WriteRef, so a stream socket references the bytes instead
// of copying them, and *cell's bytes must then never change.
func (io *IO) SockSendCell(fd kernel.FD, cell *[]byte, lend bool) core.M[int] {
	return io.sock(kernel.EventWrite, fd, cell, lend)
}

// sock applies a read (mask EventRead) or send record over *cell per
// application. flag is SockReadFull's "all of it" for a read, and lend for
// a send.
func (io *IO) sock(mask kernel.Event, fd kernel.FD, cell *[]byte, flag bool) core.M[int] {
	return func(k func(int) core.Trace) core.Trace {
		return core.Poll(&sockRec{fdWait: fdWait{io: io, fd: fd, mask: mask}, cell: cell, flag: flag}, k)
	}
}

type sockRec struct {
	fdWait
	core.PollSpine[int]
	cell *[]byte
	rest []byte // a send's cursor: the unsent suffix, nil between messages
	got  int    // SockReadFull's cursor: the count read, zero between messages
	flag bool
}

func (s *sockRec) Attempt() (int, core.Readiness, error) {
	p := (*s.cell)[s.got:]
	var n int
	var err error
	switch {
	case s.mask == kernel.EventWrite:
		return s.send()
	case len(p) > 0 && &p[0] == &sink[0]:
		n, err = s.io.k.Discard(s.fd, len(p))
	default:
		n, err = s.io.k.Read(s.fd, p)
	}
	if s.flag {
		s.got += n
	}
	r, err := ready(err, s.flag && n > 0 && s.got < len(*s.cell))
	if s.flag && r == core.Done {
		n, s.got = s.got, 0
	}
	return n, r, err
}

func (s *sockRec) send() (int, core.Readiness, error) {
	if len(s.rest) == 0 {
		s.rest = *s.cell
	}
	var n int
	var err error
	if s.flag {
		n, err = s.io.k.WriteRef(s.fd, s.rest)
	} else {
		n, err = s.io.k.Write(s.fd, s.rest)
	}
	s.rest = s.rest[n:]
	r, err := ready(err, len(s.rest) > 0)
	if r == core.Done {
		s.rest = nil // and the sent buffer is not pinned between messages
	}
	return len(*s.cell), r, err
}

// SockConnect opens a connection to a listener address.
func (io *IO) SockConnect(addr string) core.M[kernel.FD] {
	return core.NBIOe(func() (kernel.FD, error) { return io.k.Connect(addr) })
}

// ---------------------------------------------------------------------------
// AIO (§4.5)
// ---------------------------------------------------------------------------

// AIOReadResultCell submits an asynchronous disk read and parks the
// thread until it completes, handing back the byte count and the read's
// failure as a value (the paper's sys_aio_read). It reads the file,
// offset and window that *f, *off and *p hold each time the trace is
// forced: a caller that reads file after file (the web server's miss
// path, one per connection) applies it once and sets the cells before
// each read. Completions are delivered straight to the scheduler's ready
// queue; the paper harvests them with a separate worker loop, but the
// observable behaviour — the thread resumes when the disk finishes — is
// identical.
func (io *IO) AIOReadResultCell(f **kernel.File, off *int64, p *[]byte) core.M[Result[int]] {
	return func(k func(Result[int]) core.Trace) core.Trace {
		return (&aio{io: io, kr: k}).park(f, off, p)
	}
}

// AIORead is an AIO read of f at off into p with a failure raised as a
// monadic exception.
func (io *IO) AIORead(f *kernel.File, off int64, p []byte) core.M[int] {
	return func(k func(int) core.Trace) core.Trace {
		a := &aio{io: io, k: k, af: f, aoff: off, ap: p}
		return a.park(&a.af, &a.aoff, &a.ap)
	}
}

// AIOWrite submits an asynchronous disk write and parks the thread until
// it completes.
func (io *IO) AIOWrite(f *kernel.File, off int64, p []byte) core.M[int] {
	return func(k func(int) core.Trace) core.Trace {
		a := &aio{io: io, k: k, write: true, af: f, aoff: off, ap: p}
		return a.park(&a.af, &a.aoff, &a.ap)
	}
}

// aio is one application of an AIO call: its park record, which it arms,
// the kernel's request record, the cells its arguments are read through
// at each arm (its own af, aoff and ap, unless the cell form gave
// others), and the continuation, k or AIOReadResultCell's kr. The
// request's completion is bound at the first arm.
type aio struct {
	core.WaitNode
	req   kernel.AIO
	io    *IO
	f     **kernel.File
	off   *int64
	p     *[]byte
	af    *kernel.File
	aoff  int64
	ap    []byte
	write bool
	k     func(int) core.Trace
	kr    func(Result[int]) core.Trace
}

func (a *aio) park(f **kernel.File, off *int64, p *[]byte) core.Trace {
	a.f, a.off, a.p = f, off, p
	a.Armer = a
	return &a.WaitNode
}

func (a *aio) Arm(*core.WaitNode) {
	if a.req.Done == nil {
		a.req.Done = a.complete
	}
	a.Cont = nil // until this park's completion
	if a.write {
		a.req.Write(a.io.fs, *a.f, *a.off, *a.p)
	} else {
		a.req.Read(a.io.fs, *a.f, *a.off, *a.p, 0)
	}
}

// complete resumes the thread. A second completion for one park panics
// before its continuation runs, as a second resume of Suspend's does.
func (a *aio) complete(n int, err error) {
	switch {
	case a.Cont != nil:
		panic("hio: AIO completed twice")
	case a.kr != nil:
		a.Cont = a.kr(Result[int]{Val: n, Err: err})
	case err != nil:
		a.Cont = &core.ThrowNode{Err: err}
	default:
		a.Cont = a.k(n)
	}
	a.Wake()
}

// FileOpen resolves a file by name, yielding nil when there is no such
// file. Metadata operations are synchronous blocking interfaces in the OS
// (§4.6), so this is a sys_blio call (core.Blio). The simulated file
// system's open is a map lookup that never blocks, which is what lets it
// run as one clock event on a virtual clock.
func (io *IO) FileOpen(name string) core.M[*kernel.File] { return io.FileOpenCell(&name) }

// FileOpenCell is FileOpen of the name *name holds each time the trace is
// forced, so a caller that opens file after file applies it once.
func (io *IO) FileOpenCell(name *string) core.M[*kernel.File] {
	return core.Blio(func() *kernel.File {
		f, _ := io.fs.Open(*name)
		return f
	})
}

// Sleep suspends the thread for d in the kernel's timing domain.
func (io *IO) Sleep(d vclock.Duration) core.M[core.Unit] {
	return core.Sleep(io.k.Clock(), d)
}
