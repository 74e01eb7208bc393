// Package kernel simulates the slice of a Unix kernel that the paper's
// evaluation exercises: a file-descriptor table, FIFO pipes with bounded
// buffers and EAGAIN semantics, epoll-style readiness notification
// (Watch), stream sockets with an optional link model, and files backed
// by the disk model in internal/disk.
//
// The real experiments ran against Linux 2.6.15; this package substitutes
// a deterministic, in-process kernel that preserves the behaviours the
// paper's mechanisms depend on — nonblocking system calls that return
// EAGAIN exactly where Linux would, level-triggered readiness events, and
// idle waiters that cost nothing — while remaining usable from both timing
// domains (see internal/vclock).
package kernel

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"hybrid/internal/bufpool"
	"hybrid/internal/faults"
	"hybrid/internal/stats"
	"hybrid/internal/vclock"
	"hybrid/internal/waitq"
)

// Errno values mirror the Unix errors the paper's wrappers test for.
var (
	// ErrAgain is EAGAIN/EWOULDBLOCK: the nonblocking operation cannot
	// proceed; wait for readiness and retry (paper Figure 10).
	ErrAgain = errors.New("resource temporarily unavailable (EAGAIN)")
	// ErrBadFD is EBADF: the descriptor is closed or invalid.
	ErrBadFD = errors.New("bad file descriptor (EBADF)")
	// ErrPipe is EPIPE: writing to a pipe or socket whose read side is
	// closed.
	ErrPipe = errors.New("broken pipe (EPIPE)")
	// ErrInvalid is EINVAL: the operation does not apply to this
	// descriptor (for example writing the read end of a pipe).
	ErrInvalid = errors.New("invalid argument (EINVAL)")
	// ErrConnRefused is ECONNREFUSED: no listener at the address.
	ErrConnRefused = errors.New("connection refused (ECONNREFUSED)")
	// ErrAddrInUse is EADDRINUSE: the listen address is taken.
	ErrAddrInUse = errors.New("address already in use (EADDRINUSE)")
	// ErrClosed reports an operation on a closed kernel object.
	ErrClosed = errors.New("use of closed descriptor")
	// ErrIntr is EINTR: the call was interrupted before it could start;
	// retry immediately. Only produced under fault injection.
	ErrIntr = errors.New("interrupted system call (EINTR)")
	// ErrIO is EIO: a low-level I/O error. Only produced under fault
	// injection.
	ErrIO = errors.New("input/output error (EIO)")
	// ErrConnAborted is ECONNABORTED: the pending connection was torn
	// down before accept could return it; retry the accept. Only
	// produced under fault injection.
	ErrConnAborted = errors.New("software caused connection abort (ECONNABORTED)")
)

// FD is a virtual file descriptor.
type FD int

// Event is a readiness bitmask, the kernel's EPOLLIN/EPOLLOUT.
type Event uint8

const (
	// EventRead indicates the descriptor is readable (data buffered, a
	// connection pending, EOF, or an error condition).
	EventRead Event = 1 << iota
	// EventWrite indicates the descriptor is writable (buffer space
	// available or an error condition).
	EventWrite
	// EventHup indicates the peer closed; delivered with either mask.
	EventHup
)

func (e Event) String() string {
	s := ""
	if e&EventRead != 0 {
		s += "R"
	}
	if e&EventWrite != 0 {
		s += "W"
	}
	if e&EventHup != 0 {
		s += "H"
	}
	if s == "" {
		return "-"
	}
	return s
}

// endpoint is any kernel object an FD can refer to.
type endpoint interface {
	// read and write are the nonblocking data-plane operations; objects
	// that do not support one return ErrInvalid.
	read(p []byte) (int, error)
	write(p []byte) (int, error)
	// closeEnd tears down this FD's view of the object.
	closeEnd() error
	// addWatch registers a one-shot readiness watch for one direction.
	// If the watch's mask is already satisfied the object must fire it
	// immediately.
	addWatch(w *waitq.Waiter)
}

// fdShardCount stripes the descriptor table. 64 shards keeps the map
// behind any one lock small and makes cross-FD contention vanishingly
// unlikely at realistic descriptor counts; it must stay a power of two so
// shard selection is a mask, not a divide.
const fdShardCount = 64

// fdShard is one stripe of the descriptor table. Lookups (every
// sys_read/sys_write) take the read lock; only allocate and close take
// the write lock. The pad spaces shards a cache line apart so two hot
// descriptors on adjacent shards do not false-share.
type fdShard struct {
	mu  sync.RWMutex
	fds map[FD]endpoint
	_   [40]byte
}

// Kernel is a simulated OS kernel instance. Independent benchmarks create
// independent kernels.
type Kernel struct {
	clock vclock.Clock

	// shards stripe the FD table by descriptor number. Per-FD object
	// state (pipe rings, listener backlogs) lives behind each endpoint's
	// own lock, so two threads on distinct descriptors touch disjoint
	// locks end to end.
	shards [fdShardCount]fdShard
	next   atomic.Int64 // last allocated FD; seeded so the first is 3

	lmu       sync.Mutex // guards listeners only
	listeners map[string]*Listener

	// metrics is the kernel's registry; the syscall counters below are
	// taken from it at construction, one atomic each, no shared lock.
	// wakeups counts readiness events delivered to watches;
	// backlogRejects counts connections refused because a listener's
	// backlog was full, the back-pressure signal admission control
	// relies on.
	metrics                 *stats.Registry
	reads, writes           *stats.Counter
	bytesRead, bytesWritten *stats.Counter
	eagains, pipeEAGAINs    *stats.Counter
	wakeups, backlogRejects *stats.Counter

	// faults, when non-nil, injects syscall failures and delayed epoll
	// readiness per its deterministic plan. Nil-safe: the zero kernel
	// behaves exactly as before.
	faults *faults.Injector
}

// New creates a kernel in the given timing domain.
func New(clock vclock.Clock) *Kernel {
	if clock == nil {
		clock = vclock.NewReal()
	}
	k := &Kernel{
		clock:     clock,
		listeners: make(map[string]*Listener),
		metrics:   stats.NewRegistry(),
	}
	for i := range k.shards {
		k.shards[i].fds = make(map[FD]endpoint)
	}
	k.next.Store(2) // 0,1,2 reserved, as tradition demands
	m := k.metrics
	k.reads, k.writes = m.Counter("reads"), m.Counter("writes")
	k.bytesRead, k.bytesWritten = m.Counter("bytes_read"), m.Counter("bytes_written")
	k.eagains, k.pipeEAGAINs = m.Counter("eagains"), m.Counter("pipe_eagains")
	k.wakeups, k.backlogRejects = m.Counter("wakeups"), m.Counter("backlog_rejects")
	k.metrics.GaugeFunc("open_fds", func() int64 { return int64(k.OpenFDs()) })
	// Elastic-ring segment traffic. The segment pool is process-global
	// (like bufpool's other classes), but it is the kernel that draws on
	// it — every pipe and socket ring chunks through it — so the kernel's
	// registry is where capacity investigations look first.
	k.metrics.CounterFunc("segment_gets", bufpool.SegGets)
	k.metrics.CounterFunc("segment_puts", bufpool.SegPuts)
	k.metrics.CounterFunc("segment_misses", bufpool.SegMisses)
	k.metrics.GaugeFunc("segment_outstanding", bufpool.SegOutstanding)
	return k
}

// Clock reports the kernel's timing domain.
func (k *Kernel) Clock() vclock.Clock { return k.clock }

// SetFaults attaches a fault injector: subsequent reads, writes, and
// accepts may fail with EINTR/EAGAIN/EIO (ECONNABORTED for accept) and
// epoll readiness may be delivered late, per the injector's plan. Call
// during setup, before the kernel is shared between goroutines.
func (k *Kernel) SetFaults(in *faults.Injector) { k.faults = in }

// Metrics exposes the kernel's registry for the observability layer.
func (k *Kernel) Metrics() *stats.Registry { return k.metrics }

// shard maps a descriptor to its table stripe.
func (k *Kernel) shard(fd FD) *fdShard {
	return &k.shards[uint64(fd)&(fdShardCount-1)]
}

func (k *Kernel) install(e endpoint) FD {
	fd := FD(k.next.Add(1))
	sh := k.shard(fd)
	sh.mu.Lock()
	sh.fds[fd] = e
	sh.mu.Unlock()
	return fd
}

func (k *Kernel) lookup(fd FD) (endpoint, error) {
	sh := k.shard(fd)
	sh.mu.RLock()
	e, ok := sh.fds[fd]
	sh.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("fd %d: %w", fd, ErrBadFD)
	}
	return e, nil
}

// Read performs a nonblocking read on fd. It returns ErrAgain when no
// data is available, and (0, nil) at end of stream.
func (k *Kernel) Read(fd FD, p []byte) (int, error) { return k.read(fd, p, len(p), false) }

// Discard is Read for a reader that keeps nothing, like Linux
// recv(fd, NULL, n, MSG_TRUNC) on a TCP socket: up to n buffered bytes of
// a stream socket leave the ring uncopied. Counts (discarded bytes are
// bytes_read), EOF, EAGAIN, readiness and faults are Read's; a negative n
// or any other descriptor returns ErrInvalid.
func (k *Kernel) Discard(fd FD, n int) (int, error) { return k.read(fd, nil, n, true) }

func (k *Kernel) read(fd FD, p []byte, n int, drop bool) (int, error) {
	e, err := k.lookup(fd)
	if err != nil {
		return 0, err
	}
	// Injected failures happen before the endpoint is touched, like a
	// signal landing before the syscall moves data. EAGAIN is safe to
	// forge because readiness is level-triggered: the retry path's epoll
	// registration fires immediately if data really is there.
	if err := k.faults.FireErr(faults.KernelRead, ErrIntr, ErrAgain, ErrIO); err != nil {
		k.countIO(k.reads, k.bytesRead, 0, err, e)
		return 0, err
	}
	switch s, ok := e.(*socketEnd); {
	case !drop:
		n, err = e.read(p)
	case ok && n >= 0:
		n, err = s.rx.readData(nil, n)
	default: // not a stream socket, or a negative length
		n, err = 0, ErrInvalid
	}
	k.countIO(k.reads, k.bytesRead, n, err, e)
	return n, err
}

// countIO updates the syscall counters for one read or write; callers
// pass which side's op and byte counters they are.
func (k *Kernel) countIO(op, bytes *stats.Counter, n int, err error, e endpoint) {
	op.Inc()
	if n > 0 {
		bytes.Add(uint64(n))
	}
	if errors.Is(err, ErrAgain) {
		k.eagains.Inc()
		if isPipeEnd(e) {
			k.pipeEAGAINs.Inc()
		}
	}
}

// Write performs a nonblocking write on fd. It may write fewer bytes than
// requested; it returns ErrAgain when no buffer space is available.
func (k *Kernel) Write(fd FD, p []byte) (int, error) { return k.write(fd, p, false) }

// WriteRef is Write for bytes that never change. On a stream socket the
// ring may reference the accepted prefix of p instead of copying it, so p
// must stay unmodified while the peer can still read it; any other
// descriptor copies, as Write does. Counts, readiness and faults are
// Write's.
func (k *Kernel) WriteRef(fd FD, p []byte) (int, error) { return k.write(fd, p, true) }

func (k *Kernel) write(fd FD, p []byte, lend bool) (int, error) {
	e, err := k.lookup(fd)
	if err != nil {
		return 0, err
	}
	if err := k.faults.FireErr(faults.KernelWrite, ErrIntr, ErrAgain, ErrIO); err != nil {
		k.countIO(k.writes, k.bytesWritten, 0, err, e)
		return 0, err
	}
	var n int
	if s, ok := e.(*socketEnd); ok && lend {
		n, err = s.tx.writeData(p, true)
	} else {
		n, err = e.write(p)
	}
	k.countIO(k.writes, k.bytesWritten, n, err, e)
	return n, err
}

// isPipeEnd reports whether the endpoint is either end of a FIFO pipe;
// EAGAINs on pipes are tracked separately because they measure inter-thread
// flow-control pressure rather than network or disk backpressure.
func isPipeEnd(e endpoint) bool {
	switch e.(type) {
	case *pipeReadEnd, *pipeWriteEnd:
		return true
	}
	return false
}

// Close releases fd. Further operations on it return ErrBadFD.
func (k *Kernel) Close(fd FD) error {
	sh := k.shard(fd)
	sh.mu.Lock()
	e, ok := sh.fds[fd]
	if ok {
		delete(sh.fds, fd)
	}
	sh.mu.Unlock()
	if !ok {
		return fmt.Errorf("fd %d: %w", fd, ErrBadFD)
	}
	return e.closeEnd()
}

// OpenFDs reports the number of live descriptors.
func (k *Kernel) OpenFDs() int {
	n := 0
	for i := range k.shards {
		sh := &k.shards[i]
		sh.mu.RLock()
		n += len(sh.fds)
		sh.mu.RUnlock()
	}
	return n
}
