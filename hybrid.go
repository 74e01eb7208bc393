// Package hybrid is a Go reproduction of Li & Zdancewic, "Combining
// Events And Threads For Scalable Network Services" (PLDI 2007): an
// application-level concurrency library in which per-client code is
// written as extremely lightweight monadic threads while the runtime is a
// fully programmable event-driven system.
//
// A thread is a value of type M[Unit] built from Return/Bind and the
// system calls (NBIO, Fork, Yield, Throw/Catch, Suspend, Blio, …); its
// runtime representation is a Trace — a data structure of system-call
// nodes that the scheduler's event loops traverse, park, queue, and
// resume. This package re-exports the concurrency core from
// internal/core; the substrates (simulated kernel, disk and network
// models, the application-level TCP stack, the web server, and the
// benchmark harnesses for the paper's figures) live in the internal/
// packages and are demonstrated by the programs under examples/ and cmd/.
//
// A minimal program:
//
//	rt := hybrid.NewRuntime(hybrid.Options{Workers: 2})
//	defer rt.Shutdown()
//	rt.Run(hybrid.ForN(10, func(i int) hybrid.M[hybrid.Unit] {
//		return hybrid.Fork(hybrid.Seq(
//			hybrid.Do(func() { fmt.Println("hello from thread", i) }),
//			hybrid.Yield(),
//		))
//	}))
package hybrid

import (
	"hybrid/internal/core"
	"hybrid/internal/stats"
	"hybrid/internal/vclock"
)

// Core types.
type (
	// M is the CPS concurrency monad: a computation producing an A.
	M[A any] = core.M[A]
	// Unit is the result of effect-only computations.
	Unit = core.Unit
	// Trace is the run-time representation of a thread: the event
	// abstraction schedulers traverse.
	Trace = core.Trace
	// Runtime is the event-driven scheduler system.
	Runtime = core.Runtime
	// Options configures a Runtime.
	Options = core.Options
	// TCB is a thread control block.
	TCB = core.TCB
	// PanicError wraps a Go panic trapped inside a thread effect.
	PanicError = core.PanicError
)

// Observability (the stats layer; see Runtime.Stats).
type (
	// Stats is a registry of a subsystem's metrics.
	Stats = stats.Registry
	// StatsSnapshot is a frozen, mergeable view of one or more
	// registries, serializable with WriteJSON.
	StatsSnapshot = stats.Snapshot
)

// Clock abstractions (real and virtual time domains).
type (
	// Clock abstracts real and virtual time.
	Clock = vclock.Clock
	// VirtualClock is the deterministic discrete-event clock.
	VirtualClock = vclock.VirtualClock
	// RealClock is wall-clock time.
	RealClock = vclock.RealClock
)

// NewRuntime starts an event-driven runtime with the given options.
func NewRuntime(opts Options) *Runtime { return core.NewRuntime(opts) }

// NewVirtualClock creates a deterministic simulation clock.
func NewVirtualClock() *VirtualClock { return vclock.NewVirtual() }

// NewRealClock creates a wall-clock Clock.
func NewRealClock() *RealClock { return vclock.NewReal() }

// Monad operations.

// Return lifts a value into the monad.
func Return[A any](x A) M[A] { return core.Return(x) }

// Bind sequentially composes m with f.
func Bind[A, B any](m M[A], f func(A) M[B]) M[B] { return core.Bind(m, f) }

// Then sequences two computations, discarding the first result.
func Then[A, B any](m M[A], n M[B]) M[B] { return core.Then(m, n) }

// Map applies a pure function to a computation's result.
func Map[A, B any](m M[A], f func(A) B) M[B] { return core.Map(m, f) }

// Seq sequences unit computations.
func Seq(ms ...M[Unit]) M[Unit] { return core.Seq(ms...) }

// Skip does nothing.
var Skip = core.Skip

// Loop combinators (stack-safe).

// Loop repeats body while it returns true.
func Loop(body M[bool]) M[Unit] { return core.Loop(body) }

// Forever repeats body until the thread halts or throws.
func Forever(body M[Unit]) M[Unit] { return core.Forever(body) }

// ForN runs body(0..n-1) in order.
func ForN(n int, body func(i int) M[Unit]) M[Unit] { return core.ForN(n, body) }

// ForEach runs body over a slice in order.
func ForEach[A any](xs []A, body func(A) M[Unit]) M[Unit] { return core.ForEach(xs, body) }

// While repeats body while cond yields true.
func While(cond M[bool], body M[Unit]) M[Unit] { return core.While(cond, body) }

// FoldN threads an accumulator through n iterations.
func FoldN[A any](n int, acc A, body func(i int, acc A) M[A]) M[A] {
	return core.FoldN(n, acc, body)
}

// System calls (the paper's sys_* operations).

// NBIO performs a nonblocking effect on the event loop (sys_nbio).
func NBIO[A any](f func() A) M[A] { return core.NBIO(f) }

// NBIOe performs a nonblocking effect whose error is raised as an
// exception.
func NBIOe[A any](f func() (A, error)) M[A] { return core.NBIOe(f) }

// Do runs a side effect.
func Do(f func()) M[Unit] { return core.Do(f) }

// Fork spawns a new thread (sys_fork).
func Fork(child M[Unit]) M[Unit] { return core.Fork(child) }

// Yield reschedules the current thread (sys_yield).
func Yield() M[Unit] { return core.Yield() }

// Halt terminates the current thread (sys_ret).
func Halt[A any]() M[A] { return core.Halt[A]() }

// Throw raises an exception (sys_throw).
func Throw[A any](err error) M[A] { return core.Throw[A](err) }

// Catch installs an exception handler around body (sys_catch).
func Catch[A any](body M[A], handler func(error) M[A]) M[A] {
	return core.Catch(body, handler)
}

// Finally runs cleanup after body, on success or exception.
func Finally[A any](body M[A], cleanup M[Unit]) M[A] { return core.Finally(body, cleanup) }

// OnException runs handler's effects if body throws, then re-raises.
func OnException[A any](body M[A], handler M[Unit]) M[A] {
	return core.OnException(body, handler)
}

// Suspend parks the thread until an external event resumes it: the
// generic scheduling hook behind every blocking interface.
func Suspend[A any](register func(resume func(A))) M[A] { return core.Suspend(register) }

// Blio performs a blocking effect off the event loops (sys_blio): on its
// own goroutine on a real clock, as one clock event on a virtual clock,
// where it must not block.
func Blio[A any](f func() A) M[A] { return core.Blio(f) }

// Blioe is Blio with monadic error handling.
func Blioe[A any](f func() (A, error)) M[A] { return core.Blioe(f) }

// Sleep suspends the thread for d on clk.
func Sleep(clk Clock, d vclock.Duration) M[Unit] { return core.Sleep(clk, d) }

// BuildTrace converts a thread into its trace (the paper's build_trace).
func BuildTrace(m M[Unit]) Trace { return core.BuildTrace(m) }

// FirstOf races two computations in forked threads and yields the first
// outcome; the loser runs to completion unobserved (no cancellation).
func FirstOf[A any](a, b M[A]) M[A] { return core.FirstOf(a, b) }

// Timeout bounds m with a deadline on clk, raising ErrTimedOut if it
// expires first.
func Timeout[A any](clk Clock, d vclock.Duration, m M[A]) M[A] {
	return core.Timeout(clk, d, m)
}

// ErrTimedOut is raised by Timeout at its deadline.
var ErrTimedOut = core.ErrTimedOut

// Synchronization primitives (§4.7).
type (
	// Mutex is a fair blocking lock for monadic threads.
	Mutex = core.Mutex
	// MVar is Concurrent Haskell's one-place buffer.
	MVar[A any] = core.MVar[A]
	// Chan is a bounded FIFO channel between threads.
	Chan[A any] = core.Chan[A]
	// Semaphore is a counting semaphore.
	Semaphore = core.Semaphore
	// WaitGroup waits for a set of threads.
	WaitGroup = core.WaitGroup
)

// NewMutex returns an unlocked Mutex.
func NewMutex() *Mutex { return core.NewMutex() }

// NewMVar returns an empty MVar.
func NewMVar[A any]() *MVar[A] { return core.NewMVar[A]() }

// NewFullMVar returns an MVar holding x.
func NewFullMVar[A any](x A) *MVar[A] { return core.NewFullMVar(x) }

// NewChan returns a channel with the given capacity.
func NewChan[A any](capacity int) *Chan[A] { return core.NewChan[A](capacity) }

// NewSemaphore returns a semaphore with the given permits.
func NewSemaphore(permits int) *Semaphore { return core.NewSemaphore(permits) }

// NewWaitGroup returns a WaitGroup expecting n Done calls.
func NewWaitGroup(n int) *WaitGroup { return core.NewWaitGroup(n) }
