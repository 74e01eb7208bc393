// Package hio (hybrid I/O) plugs the simulated kernel's asynchronous I/O
// interfaces into the monadic runtime, following §4.5 of the paper: the
// sys_epoll_wait and sys_aio_read system calls, and the library of
// blocking-style wrappers (sock_accept, sock_send, …) that hide the
// nonblocking retry loop from application threads. The loop itself —
// Figure 10 — is written once, as core.Poll; a wrapper here is its
// nonblocking kernel call plus this package's error classifier.
//
// The paper's worker_epoll (Figure 16) harvests readiness events and
// writes each thread back to the ready queue. The simulated kernel makes
// readiness synchronously, inside the call that causes it, so there is
// nothing to harvest: sys_epoll_wait hands the thread's resume to the
// kernel as a watch, and the kernel resumes it right there — in both
// timing domains, with no event-loop goroutine of its own.
package hio

import (
	"errors"

	"hybrid/internal/core"
	"hybrid/internal/kernel"
	"hybrid/internal/vclock"
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

// result pairs a value with an error for transport through Suspend, which
// carries a single type.
type result[A any] struct {
	val A
	err error
}

// throwResult raises the carried error as a monadic exception, or yields
// the value.
func throwResult[A any](r result[A]) core.M[A] {
	if r.err != nil {
		return core.Throw[A](r.err)
	}
	return core.Return(r.val)
}

// EpollWait blocks the thread until fd is ready for one of the events in
// mask, returning the events that fired (the paper's sys_epoll_wait).
func (io *IO) EpollWait(fd kernel.FD, mask kernel.Event) core.M[kernel.Event] {
	// The watch is the thread's resume: the kernel calls it where the
	// readiness arises.
	return core.Bind(
		core.Suspend(func(resume func(result[kernel.Event])) {
			err := io.k.Watch(fd, mask, func(ev kernel.Event) {
				resume(result[kernel.Event]{val: ev})
			})
			if err != nil {
				resume(result[kernel.Event]{err: err})
			}
		}),
		throwResult,
	)
}

// CloseFD closes a descriptor.
func (io *IO) CloseFD(fd kernel.FD) core.M[core.Unit] {
	return core.Do(func() { _ = io.k.Close(fd) })
}

// ---------------------------------------------------------------------------
// Blocking-style wrappers (Figure 10)
// ---------------------------------------------------------------------------
//
// Each wrapper is its nonblocking kernel call under core.Poll, which owns
// the try/park/retry loop; ready and readiness are all this package adds.
// A wrapper that moves a whole buffer keeps a cursor, one per application
// of the M, and leaves it clean whenever ready reports Done.

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

// readiness is Poll's wait on a descriptor: sys_epoll_wait for mask.
func (io *IO) readiness(fd kernel.FD, mask kernel.Event) func() core.M[kernel.Event] {
	return func() core.M[kernel.Event] { return io.EpollWait(fd, mask) }
}

// SockAccept accepts a connection on a listening descriptor, waiting for
// readiness when none is pending — the paper's Figure 10.
func (io *IO) SockAccept(listenFD kernel.FD) core.M[kernel.FD] {
	return core.Poll(func() (kernel.FD, core.Readiness, error) {
		fd, err := io.k.Accept(listenFD)
		if errors.Is(err, kernel.ErrConnAborted) {
			// The pending connection died in the backlog: not the
			// listener's end, take the next one.
			return fd, core.Again, nil
		}
		r, err := ready(err, false)
		return fd, r, err
	}, io.readiness(listenFD, kernel.EventRead))
}

// SockRead reads at least one byte into p, waiting for readiness as
// needed. It returns 0 at end of stream.
func (io *IO) SockRead(fd kernel.FD, p []byte) core.M[int] {
	return io.SockReadCell(fd, &p)
}

// SockReadCell is SockRead into the buffer *cell holds each time the
// trace is forced: a caller that reads message after message applies it
// once and moves the window between reads.
func (io *IO) SockReadCell(fd kernel.FD, cell *[]byte) core.M[int] {
	return core.Poll(func() (int, core.Readiness, error) {
		n, err := io.k.Read(fd, *cell)
		r, err := ready(err, false)
		return n, r, err
	}, io.readiness(fd, kernel.EventRead))
}

// SockReadFull reads exactly len(p) bytes unless the stream ends first;
// it returns the number read.
func (io *IO) SockReadFull(fd kernel.FD, p []byte) core.M[int] {
	if len(p) == 0 {
		return core.Return(0)
	}
	return func(k func(int) core.Trace) core.Trace {
		got := 0 // this application's cursor; zero between messages
		return core.Poll(func() (int, core.Readiness, error) {
			n, err := io.k.Read(fd, p[got:])
			got += n
			r, err := ready(err, n > 0 && got < len(p))
			if r == core.Done {
				n, got = got, 0
			}
			return n, r, err
		}, io.readiness(fd, kernel.EventRead))(k)
	}
}

// SockSend writes all of p, waiting for buffer space as needed (the
// paper's sock_send).
func (io *IO) SockSend(fd kernel.FD, p []byte) core.M[int] {
	if len(p) == 0 {
		return core.Return(0)
	}
	return io.SockSendCell(fd, &p)
}

// SockSendCell is SockSend of the buffer *cell holds each time the trace
// is forced, so a caller that sends message after message (the httpd
// serve loop, one response per request) applies it once per connection.
// *cell must not be mutated until the count is delivered. An empty buffer
// costs one attempt where SockSend makes none.
func (io *IO) SockSendCell(fd kernel.FD, cell *[]byte) core.M[int] {
	return func(k func(int) core.Trace) core.Trace {
		var rest []byte // this application's cursor: the unsent suffix, nil between messages
		return core.Poll(func() (int, core.Readiness, error) {
			if len(rest) == 0 {
				rest = *cell
			}
			n, err := io.k.Write(fd, rest)
			rest = rest[n:]
			r, err := ready(err, len(rest) > 0)
			if r == core.Done {
				rest = nil // and the sent buffer is not pinned between messages
			}
			return len(*cell), r, err
		}, io.readiness(fd, kernel.EventWrite))(k)
	}
}

// SockConnect opens a connection to a listener address.
func (io *IO) SockConnect(addr string) core.M[kernel.FD] {
	return core.NBIOe(func() (kernel.FD, error) { return io.k.Connect(addr) })
}

// Listen binds a listening socket.
func (io *IO) Listen(addr string, backlog int) core.M[kernel.FD] {
	return core.NBIOe(func() (kernel.FD, error) { return io.k.Listen(addr, backlog) })
}

// ---------------------------------------------------------------------------
// AIO (§4.5)
// ---------------------------------------------------------------------------

// AIORead submits an asynchronous disk read and parks the thread until it
// completes, returning the byte count (the paper's sys_aio_read).
// Completions are delivered straight to the scheduler's ready queue; the
// paper harvests them with a separate worker loop, but the observable
// behaviour — the thread resumes when the disk finishes — is identical.
func (io *IO) AIORead(f *kernel.File, off int64, p []byte) core.M[int] {
	return core.Bind(
		core.Suspend(func(resume func(result[int])) {
			io.fs.AIORead(f, off, p, func(n int, err error) {
				resume(result[int]{val: n, err: err})
			})
		}),
		throwResult,
	)
}

// AIOWrite submits an asynchronous disk write and parks the thread until
// it completes.
func (io *IO) AIOWrite(f *kernel.File, off int64, p []byte) core.M[int] {
	return core.Bind(
		core.Suspend(func(resume func(result[int])) {
			io.fs.AIOWrite(f, off, p, func(n int, err error) {
				resume(result[int]{val: n, err: err})
			})
		}),
		throwResult,
	)
}

// FileOpen resolves a file by name. Metadata operations are synchronous
// blocking interfaces in the OS (§4.6), so this is a sys_blio call
// (core.Blioe). The simulated file system's open is a map lookup that never
// blocks, which is what lets it run as one clock event on a virtual clock.
func (io *IO) FileOpen(name string) core.M[*kernel.File] {
	return core.Blioe(func() (*kernel.File, error) { return io.fs.Open(name) })
}

// Sleep suspends the thread for d in the kernel's timing domain.
func (io *IO) Sleep(d vclock.Duration) core.M[core.Unit] {
	return core.Sleep(io.k.Clock(), d)
}
