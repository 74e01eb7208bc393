// Package nptl is the reproduction's baseline: a kernel-thread runtime in
// the style of the Native POSIX Thread Library, against which the paper
// compares its hybrid implementation in every I/O benchmark.
//
// Each NPTL thread is a goroutine making *blocking* calls into the same
// simulated kernel the hybrid runtime uses, with the costs that
// distinguished 2006 kernel threads from application-level threads modelled
// explicitly:
//
//   - Stack reservation. The paper configures NPTL with 32 KB stacks so it
//     can reach 16 K threads in 512 MB; each Thread here reserves (and, on
//     wall-clock benchmarks, touches) a stack-sized buffer, and a memory
//     budget makes spawning fail beyond the same limit — the reason the
//     NPTL curves in Figures 17 and 18 stop at 16 K.
//   - Context-switch cost. In the virtual-time domain each disk read
//     charges switchCost to the request's service time; in the wall-clock
//     domain each block/wake touches the whole of the thread's stack
//     buffer, modelling the cache pollution of switching between
//     kernel-thread stacks.
//
// On a virtual clock the threads take turns on the clock's event loop,
// one at a time, the way a uniprocessor kernel would run them: Spawn and
// every wake arm an event at the current instant, and that event hands
// the thread the CPU and waits until it blocks again or exits. The order
// in which threads reach the disk, the sockets and the stack budget is
// then the clock's (when, seq) order, so a baseline column is a function
// of the program. On a real clock each thread is a free-running goroutine,
// scheduled by the host as Figure 18 measures.
package nptl

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hybrid/internal/kernel"
	"hybrid/internal/vclock"
	"hybrid/internal/waitq"
)

// ErrNoMemory reports that spawning would exceed the stack memory budget
// (the 2006 equivalent: pthread_create failing with EAGAIN/ENOMEM).
var ErrNoMemory = errors.New("nptl: thread stack memory budget exhausted")

// stackSize is the stack each thread reserves: 32 KB, the paper's NPTL
// configuration. switchCost is the virtual time a disk read's completion
// charges for the kernel-thread wakeup, a 2006-era context switch.
const (
	stackSize  = 32 * 1024
	switchCost = 5 * time.Microsecond
)

// Config parameterizes the baseline runtime.
type Config struct {
	// MemoryBudget caps total reserved stack memory; 0 means the paper's
	// 512 MB test machine. Negative means unlimited.
	MemoryBudget int64
}

func (c Config) withDefaults() Config {
	if c.MemoryBudget == 0 {
		c.MemoryBudget = 512 * 1024 * 1024
	}
	return c
}

// Runtime is an NPTL-style kernel-thread runtime over a simulated kernel.
type Runtime struct {
	cfg   Config
	k     *kernel.Kernel
	fs    *kernel.FS
	clock vclock.Clock

	stackMem atomic.Int64
	threads  atomic.Int64
	wg       sync.WaitGroup

	virtual bool          // clock is a virtual clock: charge switchCost, touch no stack, take turns
	cpu     chan struct{} // virtual clock: the running thread hands the CPU back here
}

// New creates a baseline runtime over the given kernel and filesystem
// (fs may be nil).
func New(k *kernel.Kernel, fs *kernel.FS, cfg Config) *Runtime {
	_, virtual := k.Clock().(*vclock.VirtualClock)
	return &Runtime{cfg: cfg.withDefaults(), k: k, fs: fs, clock: k.Clock(), virtual: virtual,
		cpu: make(chan struct{})}
}

// StackMemory reports total reserved stack bytes.
func (r *Runtime) StackMemory() int64 { return r.stackMem.Load() }

// Spawn starts a kernel thread running fn. It fails with ErrNoMemory when
// the stack budget is exhausted, which is how the baseline's thread count
// is capped in the figures.
func (r *Runtime) Spawn(fn func(t *Thread)) error {
	need := int64(stackSize)
	for {
		cur := r.stackMem.Load()
		if r.cfg.MemoryBudget > 0 && cur+need > r.cfg.MemoryBudget {
			return fmt.Errorf("%w: %d threads, %d MB reserved",
				ErrNoMemory, r.threads.Load(), cur>>20)
		}
		if r.stackMem.CompareAndSwap(cur, cur+need) {
			break
		}
	}
	t := &Thread{r: r}
	t.w.Target = t
	if r.virtual {
		t.turn = make(chan struct{})
		t.ready = r.clock.NewTimer(t.run)
	} else {
		t.stack = make([]byte, stackSize)
		t.turn = make(chan struct{}, 1)
	}
	r.threads.Add(1)
	r.wg.Add(1)
	go func() {
		defer func() {
			r.threads.Add(-1)
			r.stackMem.Add(-need)
			if t.ready != nil {
				r.cpu <- struct{}{} // exiting ends the thread's last turn
			}
			r.wg.Done()
		}()
		if t.ready != nil {
			<-t.turn
		}
		fn(t)
	}()
	if r.virtual {
		t.Wake()
	}
	return nil
}

// Wait blocks until all spawned threads have finished.
func (r *Runtime) Wait() { r.wg.Wait() }

// Thread is one kernel thread's handle; all methods block the calling
// goroutine the way the corresponding Linux system calls block an NPTL
// thread.
type Thread struct {
	r     *Runtime
	stack []byte
	w     waitq.Waiter // its readiness watch, whose target is the thread

	turn  chan struct{} // the CPU, handed over by ready's event (real clock: the wake)
	ready *vclock.Timer // virtual clock: the thread's next turn
}

// Wake ends the thread's block: it arms the thread's next turn at the
// current instant on a virtual clock, and releases its goroutine on a
// real one.
func (t *Thread) Wake() {
	if t.ready != nil {
		t.ready.Reset(0)
	} else {
		t.turn <- struct{}{}
	}
}

// run is the turn's event: it hands the thread the CPU and holds the
// clock's batch until the thread blocks or exits.
func (t *Thread) run() {
	t.turn <- struct{}{}
	<-t.r.cpu
}

// contextSwitch models one block/wake pair's cost in the wall-clock
// domain by touching the thread's reserved stack.
func (t *Thread) contextSwitch() {
	if t.stack == nil {
		return
	}
	for i := 0; i < len(t.stack); i += 64 {
		t.stack[i]++
	}
}

// block parks the calling thread until its one Wake: on a virtual clock
// it gives back the CPU and waits for its next turn.
func (t *Thread) block() {
	if t.ready != nil {
		t.r.cpu <- struct{}{}
	}
	<-t.turn
	t.contextSwitch()
}

// waitReady blocks until fd is ready for mask. The thread's waiter is
// the watch, woken by whichever call makes fd ready.
func (t *Thread) waitReady(fd kernel.FD, mask kernel.Event) error {
	err := t.r.k.Watch(fd, mask, &t.w)
	if err != nil {
		t.Wake()
	}
	t.block()
	return err
}

// Read blocks until data is available (or EOF) and reads it.
func (t *Thread) Read(fd kernel.FD, p []byte) (int, error) {
	for {
		n, err := t.r.k.Read(fd, p)
		if !errors.Is(err, kernel.ErrAgain) {
			return n, err
		}
		if err := t.waitReady(fd, kernel.EventRead); err != nil {
			return 0, err
		}
	}
}

// Write blocks until at least one byte is written.
func (t *Thread) Write(fd kernel.FD, p []byte) (int, error) {
	for {
		n, err := t.r.k.Write(fd, p)
		if !errors.Is(err, kernel.ErrAgain) {
			return n, err
		}
		if err := t.waitReady(fd, kernel.EventWrite); err != nil {
			return 0, err
		}
	}
}

// WriteAll blocks until all of p is written.
func (t *Thread) WriteAll(fd kernel.FD, p []byte) error {
	for len(p) > 0 {
		n, err := t.Write(fd, p)
		if err != nil {
			return err
		}
		p = p[n:]
	}
	return nil
}

// ReadFull blocks until len(p) bytes are read or the stream ends,
// returning the count.
func (t *Thread) ReadFull(fd kernel.FD, p []byte) (int, error) {
	got := 0
	for got < len(p) {
		n, err := t.Read(fd, p[got:])
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

// Accept blocks until a connection is pending and accepts it.
func (t *Thread) Accept(listenFD kernel.FD) (kernel.FD, error) {
	for {
		fd, err := t.r.k.Accept(listenFD)
		if !errors.Is(err, kernel.ErrAgain) {
			return fd, err
		}
		if err := t.waitReady(listenFD, kernel.EventRead); err != nil {
			return 0, err
		}
	}
}

// Close closes a descriptor.
func (t *Thread) Close(fd kernel.FD) error { return t.r.k.Close(fd) }

// Pread reads from a file at an offset, blocking for the disk — the
// baseline's synchronous counterpart of the hybrid runtime's sys_aio_read.
// In the virtual domain the request is charged switchCost extra service
// time, modelling the kernel-thread wakeup on completion.
func (t *Thread) Pread(f *kernel.File, p []byte, off int64) (int, error) {
	var (
		gotN   int
		gotErr error
	)
	extra := time.Duration(0)
	if t.r.virtual {
		extra = switchCost
	}
	t.r.fs.AIOReadExtra(f, off, p, extra, func(n int, err error) {
		gotN, gotErr = n, err
		t.Wake()
	})
	t.block()
	return gotN, gotErr
}
