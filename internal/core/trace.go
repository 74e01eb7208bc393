// Package core implements the paper's primary contribution: application-level
// concurrency primitives built from a continuation-passing-style (CPS)
// concurrency monad whose side effect is a *trace* of system calls, plus an
// event-driven runtime that schedules threads by interpreting their traces.
//
// A monadic thread is written with the combinators in monad.go and the
// system calls in syscalls.go; the runtime in runtime.go plays the role of
// the paper's worker_main event loops. The duality at the heart of the
// paper is visible in the types: a thread is a value of type M[Unit], and
// BuildTrace converts it into a Trace — a data structure that an event loop
// can traverse, suspend, store in queues, and resume like any other event.
//
// Haskell's lazy evaluation is modelled explicitly: wherever the paper's
// trace contains an unevaluated sub-trace, ours contains a record whose
// Step produces the next node (or a closure that does). "Forcing the
// node" is stepping it, which runs the thread to its next system call.
package core

import (
	"sync/atomic"

	"hybrid/internal/vclock"
)

// Trace is the run-time representation of (the rest of) a thread's
// execution: a list of system calls, one node per call, terminated by
// RetNode. Each node type corresponds to one of the paper's SYS_*
// constructors. A Trace is the event abstraction of the hybrid model: the
// scheduler plays the active role by examining nodes, and examining a node
// runs the suspended thread up to its next system call.
type Trace interface{ traceNode() }

// Unit is the result type of computations run purely for effect, standing
// in for Haskell's (). Threads have type M[Unit].
type Unit struct{}

// RetNode ends a trace: the thread has terminated (the paper's SYS_RET).
type RetNode struct{}

// A trace node that is a Stepper is the paper's SYS_NBIO: a record — an
// NBIO application, a Loop, ForN or RepeatN bounce, a Poll spine, an
// NBIONode — whose Step the scheduler calls on a worker event loop, to
// run the thread up to its next system call. Step must not block: that
// stalls the event loop (use BlioNode).
type Stepper interface{ Step() Trace }

// NBIONode is the SYS_NBIO node of a record outside this package, which
// it steps. Holding a pointer to the record, it allocates nothing.
type NBIONode struct{ Stepper }

// ForkNode spawns a new thread (the paper's SYS_FORK). Child is the new
// thread's computation, built into a trace each time the node is forced,
// so a retained trace that forks on every replay gives every child a
// trace (and fused spines) of its own. Cont is the continuation of the
// parent.
type ForkNode struct {
	Child M[Unit]
	Cont  Trace
}

// YieldNode asks the scheduler to switch to another thread (the paper's
// SYS_YIELD). The current thread is placed at the back of the ready queue.
type YieldNode struct{ Cont Trace }

// ThrowNode raises an exception (the paper's SYS_THROW). The scheduler
// pops the thread's frames, running their cleanups, down to the first
// frame with a handler; if there is none the thread dies and the runtime
// records the error (Runtime.UncaughtErrors).
type ThrowNode struct{ Err error }

// CatchNode pushes a frame on the thread's frame stack (the paper's
// SYS_CATCH) and continues with Body. The frame is the record of the
// Catch, Ensure, Finally or OnException application, and Body's success
// path ends in it, forced as a node that pops it. A frame holds a handler,
// or a cleanup, which runs once whichever way the frame is left: popped,
// unwound past by a ThrowNode, or still pushed when the thread dies —
// Halt, a trapped panic, or a discard at Shutdown. Catch, Finally and
// OnException hold a handler; Ensure holds a cleanup, which Finally cannot
// replace on the abnormal paths because its cleanup is itself part of the
// trace, and a dead thread's trace never resumes. A pushed frame keeps
// nothing of Body alive: only a retained trace holds its CatchNode.
type CatchNode struct {
	Body  Trace
	frame frame
}

// frame is one entry of a thread's frame stack: exit is what follows the
// pop at the body's end, handle the trace that takes an exception
// unwinding to the frame (nil: no handler), cleanup the frame's cleanup
// (or nil).
type frame interface {
	Trace
	exit() Trace
	handle(err error) Trace
	cleanup() func()
}

// WaitNode parks the thread until an event wakes it (the paper's
// SYS_EPOLL_WAIT and its kin): the one scheduling hook from which every
// blocking system call — sys_epoll_wait, sys_aio_read, sys_mutex, timers,
// TCP operations — is built. It is a record, not a closure: the scheduler
// fills in the parked thread and calls Armer.Arm, which links the record
// into whatever will fire the event (a kernel wait list, a timer, a mutex
// queue); the event calls Wake exactly once, which re-enqueues the thread
// at Cont. Arm may call Wake synchronously (the "already ready" fast
// path). Armer is the primitive's own record, set where it is built.
//
// A record is reusable: a Poll record or a Sleep re-arms the same one at
// every park, so a park allocates nothing of its own. Each park bumps the
// record's generation. A second Wake for one park panics — it would
// duplicate the thread — and so does parking a record that is already
// parked (two threads sharing one trace). A Wake that arrives after its
// thread died while parked (an Arm that panicked under TrapPanics) is
// dropped.
type WaitNode struct {
	Armer Armer
	Cont  Trace

	rt    *Runtime
	tcb   *TCB
	id    uint64        // tcb.id at the park; a dead or recycled block has another
	state atomic.Uint64 // generation<<1 | waitParked
}

const (
	waitParked = 1 // the state bit set from park to Wake
	waitGen    = 2 // one generation in state
)

// BlioNode requests a blocking effect (the paper's SYS_BLIO, §4.6). The
// scheduler steps Effect off the worker event loops — on its own goroutine
// on a real clock, as one clock event on a virtual clock (see Blio) — and
// enqueues the returned Trace when it completes. Like a WaitNode it is a
// record its thread re-enters: it holds the thread while the effect is
// out, and on a virtual clock owns the timer its event rides, made at its
// first submission and re-armed after.
type BlioNode struct {
	Effect Stepper

	rt  *Runtime
	tcb *TCB
	t   *vclock.Timer // bound to resume at the first virtual-clock submission
}

func (*RetNode) traceNode()        {}
func (*NBIONode) traceNode()       {}
func (*ForkNode) traceNode()       {}
func (*YieldNode) traceNode()      {}
func (*ThrowNode) traceNode()      {}
func (*CatchNode) traceNode()      {}
func (*WaitNode) traceNode()       {}
func (*BlioNode) traceNode()       {}
func (*PollSpine[A]) traceNode()   {}
func (*nbio[A]) traceNode()        {}
func (*nbioe[A]) traceNode()       {}
func (*doRec) traceNode()          {}
func (*loopSpine) traceNode()      {}
func (*forSpine) traceNode()       {}
func (*forNode) traceNode()        {}
func (*catchRec[A, F]) traceNode() {}
func (*finallyRec[A]) traceNode()  {}

// ret is the shared terminal node; threads never inspect it, so one value
// suffices and keeps per-thread allocation minimal.
var ret = &RetNode{}
