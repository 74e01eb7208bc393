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
	// readiness reports the current level-triggered readiness.
	readiness() Event
	// addWatch registers a one-shot readiness watch for one direction.
	// If the watch's mask is already satisfied the object must fire it
	// immediately.
	addWatch(w watch)
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

	// counters track system calls for the evaluation harness. They are
	// plain atomics — the old single statsMu serialized every read and
	// write in the kernel against every other.
	counters kernelCounters

	// metrics mirrors the counters for the observability layer.
	metrics *stats.Registry

	// faults, when non-nil, injects syscall failures and delayed epoll
	// readiness per its deterministic plan. Nil-safe: the zero kernel
	// behaves exactly as before.
	faults *faults.Injector
}

// kernelCounters is the hot-path mirror of Stats: one atomic per field,
// no shared lock.
type kernelCounters struct {
	reads          atomic.Uint64
	writes         atomic.Uint64
	bytesRead      atomic.Uint64
	bytesWrote     atomic.Uint64
	eagains        atomic.Uint64
	pipeEAGAINs    atomic.Uint64
	wakeups        atomic.Uint64
	backlogRejects atomic.Uint64
}

// Stats are monotonically increasing counters of kernel activity.
type Stats struct {
	Reads       uint64
	Writes      uint64
	BytesRead   uint64
	BytesWrote  uint64
	EAGAINs     uint64
	PipeEAGAINs uint64
	// Wakeups counts readiness events delivered to watches.
	Wakeups uint64
	// BacklogRejects counts connections refused because the listener's
	// backlog was full — the kernel-side symptom of an overloaded accept
	// loop, and the back-pressure signal admission control relies on.
	BacklogRejects uint64
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
	// The syscall counters live on atomics; bridge them as func metrics
	// rather than double-counting on the data path.
	counters := []struct {
		name string
		c    *atomic.Uint64
	}{
		{"reads", &k.counters.reads},
		{"writes", &k.counters.writes},
		{"bytes_read", &k.counters.bytesRead},
		{"bytes_written", &k.counters.bytesWrote},
		{"eagains", &k.counters.eagains},
		{"pipe_eagains", &k.counters.pipeEAGAINs},
		{"wakeups", &k.counters.wakeups},
		{"backlog_rejects", &k.counters.backlogRejects},
	}
	for _, c := range counters {
		ctr := c.c
		k.metrics.CounterFunc(c.name, ctr.Load)
	}
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

// Snapshot returns a copy of the kernel's counters.
func (k *Kernel) Snapshot() Stats {
	return Stats{
		Reads:          k.counters.reads.Load(),
		Writes:         k.counters.writes.Load(),
		BytesRead:      k.counters.bytesRead.Load(),
		BytesWrote:     k.counters.bytesWrote.Load(),
		EAGAINs:        k.counters.eagains.Load(),
		PipeEAGAINs:    k.counters.pipeEAGAINs.Load(),
		Wakeups:        k.counters.wakeups.Load(),
		BacklogRejects: k.counters.backlogRejects.Load(),
	}
}

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
func (k *Kernel) Read(fd FD, p []byte) (int, error) {
	e, err := k.lookup(fd)
	if err != nil {
		return 0, err
	}
	// Injected failures happen before the endpoint is touched, like a
	// signal landing before the syscall moves data. EAGAIN is safe to
	// forge because readiness is level-triggered: the retry path's epoll
	// registration fires immediately if data really is there.
	if err := k.faults.FireErr(faults.KernelRead, ErrIntr, ErrAgain, ErrIO); err != nil {
		k.countIO(&k.counters.reads, &k.counters.bytesRead, 0, err, e)
		return 0, err
	}
	n, err := e.read(p)
	k.countIO(&k.counters.reads, &k.counters.bytesRead, n, err, e)
	return n, err
}

// countIO updates the syscall counters for one read or write. op and
// bytes point into k.counters; callers pass which side they are.
func (k *Kernel) countIO(op, bytes *atomic.Uint64, n int, err error, e endpoint) {
	op.Add(1)
	if n > 0 {
		bytes.Add(uint64(n))
	}
	if errors.Is(err, ErrAgain) {
		k.counters.eagains.Add(1)
		if isPipeEnd(e) {
			k.counters.pipeEAGAINs.Add(1)
		}
	}
}

// Write performs a nonblocking write on fd. It may write fewer bytes than
// requested; it returns ErrAgain when no buffer space is available.
func (k *Kernel) Write(fd FD, p []byte) (int, error) {
	e, err := k.lookup(fd)
	if err != nil {
		return 0, err
	}
	if err := k.faults.FireErr(faults.KernelWrite, ErrIntr, ErrAgain, ErrIO); err != nil {
		k.countIO(&k.counters.writes, &k.counters.bytesWrote, 0, err, e)
		return 0, err
	}
	n, err := e.write(p)
	k.countIO(&k.counters.writes, &k.counters.bytesWrote, n, err, e)
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

// Readiness reports the current readiness of fd (diagnostics and tests).
func (k *Kernel) Readiness(fd FD) (Event, error) {
	e, err := k.lookup(fd)
	if err != nil {
		return 0, err
	}
	return e.readiness(), nil
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
