package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"hybrid/internal/stats"
	"hybrid/internal/vclock"
)

// TCB is a thread control block: everything the runtime keeps per monadic
// thread. As in the paper (§5.1), the entire thread-local state is the
// trace (a chain of closures standing in for the lazy thunk) and the
// exception-handler stack; this is why the threads are so light.
type TCB struct {
	id       uint64
	trace    Trace
	handlers []func(error) Trace
	cleanups []func() // Ensure frames, run LIFO on abnormal death
}

// Options configures a Runtime.
type Options struct {
	// Workers is the number of worker_main event loops (§4.4). Each runs
	// on its own goroutine (the stand-in for the paper's OS threads), so
	// more than one exploits SMP. Default 1. More than one is a real-clock
	// setting: on a virtual clock the one worker is the clock's event loop.
	Workers int
	// BatchSteps is how many trace nodes a worker interprets before
	// putting a thread back on the ready queue, the paper's "a thread is
	// executed for a large number of steps before switching to another
	// thread to improve locality" (§4.2). Default 128.
	BatchSteps int
	// Clock is the timing domain the runtime participates in. Default a
	// fresh real (wall-clock) clock.
	Clock vclock.Clock
	// TrapPanics converts Go panics inside NBIO/Blio effects into monadic
	// exceptions of type *PanicError instead of crashing the worker.
	TrapPanics bool
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.BatchSteps <= 0 {
		o.BatchSteps = 128
	}
	if o.Clock == nil {
		o.Clock = vclock.NewReal()
	}
	return o
}

// PanicError wraps a Go panic recovered from a thread's effect when
// Options.TrapPanics is set.
type PanicError struct{ Value any }

func (e *PanicError) Error() string { return fmt.Sprintf("panic in thread effect: %v", e.Value) }

// schedMetrics caches the scheduler's metric instruments so hot paths
// touch atomics directly instead of looking names up in the registry.
type schedMetrics struct {
	dispatches *stats.Counter   // TCBs handed to a worker (== Switches)
	yields     *stats.Counter   // sys_yield reschedules
	parks      *stats.Counter   // threads parked by sys_suspend
	resumes    *stats.Counter   // parked threads made runnable again
	forks      *stats.Counter   // sys_fork children created
	completed  *stats.Counter   // threads that terminated
	uncaught   *stats.Counter   // exceptions that reached the top of a thread
	rejected   *stats.Counter   // enqueues refused by a closed queue (Spawn vs Shutdown)
	cleanups   *stats.Counter   // Ensure cleanups run on the abort path
	panicKills *stats.Counter   // panics that escaped a trace and killed only their thread
	batchFull  *stats.Counter   // dispatches that exhausted their step budget
	batchUsed  *stats.Histogram // trace nodes interpreted per dispatch
	readyDepth *stats.Histogram // ready-queue depth sampled every 16th dispatch
	blioSubmit *stats.Counter   // sys_blio effects submitted

	workerDispatches []*stats.Counter // per worker_main loop
}

func newSchedMetrics(r *stats.Registry, workers int) *schedMetrics {
	m := &schedMetrics{
		dispatches: r.Counter("dispatches"),
		yields:     r.Counter("yields"),
		parks:      r.Counter("parks"),
		resumes:    r.Counter("resumes"),
		forks:      r.Counter("forks"),
		completed:  r.Counter("completed"),
		uncaught:   r.Counter("uncaught"),
		rejected:   r.Counter("enqueue_rejected"),
		cleanups:   r.Counter("abort_cleanups"),
		panicKills: r.Counter("panic_kills"),
		batchFull:  r.Counter("batch_full"),
		batchUsed:  r.Histogram("batch_used", stats.PowersOfTwo(1024)...),
		readyDepth: r.Histogram("ready_depth", stats.PowersOfTwo(1<<20)...),
		blioSubmit: r.Counter("blio_submits"),
	}
	for i := 0; i < workers; i++ {
		m.workerDispatches = append(m.workerDispatches,
			r.Counter(fmt.Sprintf("worker%02d.dispatches", i)))
	}
	return m
}

// Runtime is the event-driven system of the paper's Figure 14: worker
// event loops draining a ready queue of traces. Event sources (epoll, AIO,
// timers, TCP) are plugged in from outside through WaitNode; the runtime
// itself is I/O-agnostic. Blocking effects (sys_blio) need no pool of
// their own: see the BlioNode arm of interpret.
type Runtime struct {
	opts  Options
	clock vclock.Clock
	vc    *vclock.VirtualClock // non-nil when clock is virtual: blio events, the worker fires its batches

	ready *sharedQueue // the paper's single ready_queue, drained by every worker

	nextID  atomic.Uint64
	live    atomic.Int64
	spawned atomic.Uint64

	metrics *stats.Registry
	m       *schedMetrics

	idleMu      sync.Mutex
	idleCond    *sync.Cond
	idleWaiters atomic.Int64 // WaitLive waiters needing a broadcast per retirement

	uncaughtMu   sync.Mutex
	uncaught     []uncaughtRecord
	uncaughtSeen map[uint64]struct{}

	closed atomic.Bool
	wg     sync.WaitGroup // worker loops and in-flight real-clock blio effects
}

// NewRuntime starts a runtime: Options.Workers worker event loops, all
// waiting for threads. It panics on Workers > 1 with a virtual clock.
func NewRuntime(opts Options) *Runtime {
	opts = opts.withDefaults()
	rt := &Runtime{opts: opts, clock: opts.Clock, metrics: stats.NewRegistry(), ready: newSharedQueue()}
	rt.m = newSchedMetrics(rt.metrics, opts.Workers)
	rt.metrics.GaugeFunc("live", rt.Live)
	rt.metrics.CounterFunc("spawned", rt.spawned.Load)
	rt.idleCond = sync.NewCond(&rt.idleMu)
	rt.vc, _ = opts.Clock.(*vclock.VirtualClock)
	if rt.vc != nil {
		if opts.Workers > 1 {
			panic("core: a virtual clock runs one worker; Workers > 1 is a real-clock setting")
		}
		rt.ready.bindClock(rt.vc)
	}
	for i := 0; i < opts.Workers; i++ {
		rt.wg.Add(1)
		go rt.workerMain(i)
	}
	return rt
}

// Stats reports the scheduler's metrics registry: dispatch, park, and
// batch counters plus queue-depth histograms. Snapshot it (or merge
// it with other subsystems' registries) to explain a benchmark curve.
func (rt *Runtime) Stats() *stats.Registry { return rt.metrics }

// Spawn creates a new monadic thread running m. It may be called from
// outside the runtime or from effects within it.
func (rt *Runtime) Spawn(m M[Unit]) {
	rt.spawnTrace(BuildTrace(m))
}

// tcbPool recycles thread control blocks through thread death and spawn,
// so the dominant spawn/exit churn of short-lived threads (one per
// request, per timer, per fork) stops allocating. A recycled TCB gets a
// fresh id; the pool holds only fully-dead blocks whose trace, handler,
// and cleanup state were cleared by threadDone.
var tcbPool = sync.Pool{New: func() any { return new(TCB) }}

// newTCB allocates or recycles a control block for a fresh thread.
func (rt *Runtime) newTCB(tr Trace) *TCB {
	tcb := tcbPool.Get().(*TCB)
	tcb.id = rt.nextID.Add(1)
	tcb.trace = tr
	return tcb
}

func (rt *Runtime) spawnTrace(tr Trace) {
	tcb := rt.newTCB(tr)
	rt.live.Add(1)
	rt.spawned.Add(1)
	// Spawn may come from outside any worker or event callback (main
	// goroutine, an NPTL thread): hold the clock across the publish so a
	// concurrently-quiescing system cannot advance or report idle while
	// the thread is in flight to the queue.
	rt.clock.Enter()
	rt.enqueue(tcb)
	rt.clock.Exit()
}

// enqueue makes a thread runnable. The clock is not touched: the worker
// fires the next batch only once the queue is dry, so queued threads pin
// virtual time by themselves. Callers pushing from outside the worker
// and event callbacks (external Spawn) bracket the push with their own
// clock hold, which keeps time still while the thread is in flight. If
// the queue rejects the thread (Shutdown racing a Spawn or a resume), the
// thread is accounted as done here — the rejection path must leave the
// clock and the live count exactly as a completed thread would.
func (rt *Runtime) enqueue(tcb *TCB) {
	if !rt.ready.push(tcb) {
		rt.discard(tcb)
	}
}

// discard accounts for a thread rejected by a closed queue: the thread is
// counted as done, so WaitIdle and virtual-clock quiescence see the same
// state as if it had completed.
func (rt *Runtime) discard(tcb *TCB) {
	rt.m.rejected.Inc()
	rt.threadDone(tcb)
}

// Live reports the number of threads that have been spawned and not yet
// terminated (including parked threads).
func (rt *Runtime) Live() int64 { return rt.live.Load() }

// Spawned reports the total number of threads ever spawned.
func (rt *Runtime) Spawned() uint64 { return rt.spawned.Load() }

// Switches reports how many times a worker dispatched a thread; the
// difference between two readings measures context-switch traffic.
func (rt *Runtime) Switches() uint64 { return rt.m.dispatches.Load() }

// QueueDepth reports the number of threads currently runnable but not
// being executed (diagnostics; the paper's event-loop queues made
// visible).
func (rt *Runtime) QueueDepth() int { return rt.ready.size() }

// uncaughtRecord ties an uncaught exception to the thread that raised
// it, so the collection can deduplicate and order deterministically.
type uncaughtRecord struct {
	thread uint64
	err    error
}

// UncaughtErrors returns the exceptions that reached the top of a thread.
// Each thread appears at most once, and the slice is ordered by thread id
// — spawn order — so concurrent workers reporting panics produce a
// deterministic result.
func (rt *Runtime) UncaughtErrors() []error {
	rt.uncaughtMu.Lock()
	recs := make([]uncaughtRecord, len(rt.uncaught))
	copy(recs, rt.uncaught)
	rt.uncaughtMu.Unlock()
	sort.Slice(recs, func(i, j int) bool { return recs[i].thread < recs[j].thread })
	out := make([]error, len(recs))
	for i, r := range recs {
		out[i] = r.err
	}
	return out
}

// WaitIdle blocks until no live threads remain. Parked threads count as
// live, so a system that deadlocks never becomes idle.
func (rt *Runtime) WaitIdle() {
	rt.idleMu.Lock()
	for rt.live.Load() != 0 {
		rt.idleCond.Wait()
	}
	rt.idleMu.Unlock()
}

// WaitLive blocks until at most n live threads remain. A harness whose
// system keeps permanent threads (a server's accept loop) uses this to
// quiesce before reading metrics: a workload signalling completion from
// inside a thread's trace returns to the host before the worker has
// retired that thread, so counters like completed and live are still
// moving — under parallel workers the host would snapshot mid-retirement.
func (rt *Runtime) WaitLive(n int64) {
	rt.idleMu.Lock()
	rt.idleWaiters.Add(1)
	for rt.live.Load() > n {
		rt.idleCond.Wait()
	}
	rt.idleWaiters.Add(-1)
	rt.idleMu.Unlock()
}

// Run spawns m and waits until every thread in the runtime (m and
// anything it forked) has terminated.
func (rt *Runtime) Run(m M[Unit]) {
	rt.Spawn(m)
	rt.WaitIdle()
}

// Shutdown stops the worker loops. Threads still queued are discarded —
// with the live count decremented, so a post-Shutdown WaitIdle cannot
// wedge on them — but call WaitIdle first for a clean drain. A blio effect
// in flight on a real clock is waited for, and its thread then discarded.
// Parked threads whose resume never fires remain live. Shutdown is
// idempotent.
func (rt *Runtime) Shutdown() {
	if !rt.closed.CompareAndSwap(false, true) {
		return
	}
	for _, tcb := range rt.ready.close() {
		rt.discard(tcb)
	}
	rt.wg.Wait()
}

func (rt *Runtime) threadDone(tcb *TCB) {
	// Whatever killed the thread — RetNode, uncaught exception, trapped
	// panic, or a Shutdown discard — its still-registered Ensure cleanups
	// run now, LIFO, so descriptors and admission slots held by a dead
	// thread are always given back. A balanced thread reaches here with an
	// empty stack; the loop costs nothing then.
	for i := len(tcb.cleanups) - 1; i >= 0; i-- {
		fn := tcb.cleanups[i]
		tcb.cleanups[i] = nil
		rt.m.cleanups.Inc()
		func() {
			defer func() { recover() }() // a broken cleanup must not block the rest
			fn()
		}()
	}
	tcb.cleanups = nil
	tcb.id = 0 // a Wake still linked to the dead thread is stale from here on
	rt.m.completed.Inc()
	if rt.live.Add(-1) == 0 || rt.idleWaiters.Load() != 0 {
		rt.idleMu.Lock()
		rt.idleCond.Broadcast()
		rt.idleMu.Unlock()
	}
	// The block is fully dead: no caller touches it after threadDone.
	// Clear every reference (a discarded thread can die mid-Catch with
	// handlers still pushed) and recycle it for the next spawn.
	tcb.trace = nil
	tcb.handlers = nil
	tcbPool.Put(tcb)
}

func (rt *Runtime) reportUncaught(tcb *TCB, err error) {
	rt.m.uncaught.Inc()
	rt.uncaughtMu.Lock()
	// A thread terminates when its exception reaches the top, so it can
	// report at most once; the guard keeps that invariant even if a buggy
	// event source resumes a dead thread into a second throw.
	if _, dup := rt.uncaughtSeen[tcb.id]; !dup {
		if rt.uncaughtSeen == nil {
			rt.uncaughtSeen = make(map[uint64]struct{})
		}
		rt.uncaughtSeen[tcb.id] = struct{}{}
		rt.uncaught = append(rt.uncaught, uncaughtRecord{thread: tcb.id, err: err})
	}
	rt.uncaughtMu.Unlock()
}

// workerMain is the scheduler event loop (the paper's Figure 11): fetch a
// trace from the ready queue, force nodes to execute the thread, perform
// the requested system calls, and put continuations back on queues.
func (rt *Runtime) workerMain(id int) {
	defer rt.wg.Done()
	for {
		tcb, ok := rt.ready.pop()
		if !ok {
			return
		}
		rt.m.workerDispatches[id].Inc()
		if n := rt.m.dispatches.Inc(); n&0xF == 0 {
			// Sampled, not per-dispatch: size() takes the queue lock.
			rt.m.readyDepth.Observe(int64(rt.ready.size()))
		}
		rt.step(tcb)
	}
}

// step interprets up to BatchSteps nodes of tcb's trace and records how
// much of the budget the dispatch used. On return the thread has been
// re-enqueued, parked, or terminated. The clock is untouched: on a
// virtual clock the worker is the one that fires batches, so time cannot
// move while it executes a thread.
//
// With TrapPanics set, step is also the runtime's last line of defense:
// runEffect traps panics inside NBIO/Blio effects, but a panic raised
// while building a trace — in a Catch handler, a continuation, or a
// WaitNode's Arm — escapes interpret. Seed behaviour was to let it
// kill the worker goroutine (and with it the process); now the panic
// kills only the offending thread: its Ensure cleanups run, the panic is
// reported as an uncaught *PanicError, and the live count is released
// exactly as for a completed thread.
func (rt *Runtime) step(tcb *TCB) {
	if rt.opts.TrapPanics {
		defer func() {
			if v := recover(); v != nil {
				rt.m.panicKills.Inc()
				rt.reportUncaught(tcb, &PanicError{Value: v})
				rt.threadDone(tcb)
			}
		}()
	}
	used, retired := rt.interpret(tcb)
	rt.m.batchUsed.Observe(int64(used))
	// Retirement happens after the dispatch's own accounting: threadDone
	// releases WaitIdle/WaitLive, and a waiter snapshotting metrics must
	// not observe the final dispatch half-recorded (counted in dispatches
	// but missing from batch_used).
	if retired {
		rt.threadDone(tcb)
	}
}

// interpret is the case analysis at the heart of the hybrid model: each
// arm is one system call. It returns the number of trace nodes executed,
// and whether the thread terminated (the caller runs threadDone after
// recording the dispatch, so retirement is the last observable effect).
func (rt *Runtime) interpret(tcb *TCB) (used int, retired bool) {
	tr := tcb.trace
	tcb.trace = nil
	for budget := rt.opts.BatchSteps; budget > 0; budget-- {
		used++
		switch n := tr.(type) {
		case *NBIONode:
			tr = rt.runEffect(n.Effect)

		case *ForkNode:
			child := rt.newTCB(BuildTrace(n.Child))
			rt.live.Add(1)
			rt.spawned.Add(1)
			rt.m.forks.Inc()
			rt.enqueue(child)
			tr = n.Cont

		case *YieldNode:
			rt.m.yields.Inc()
			tcb.trace = n.Cont
			rt.enqueue(tcb)
			return used, false

		case *RetNode:
			return used, true

		case *ThrowNode:
			if len(tcb.handlers) == 0 {
				rt.reportUncaught(tcb, n.Err)
				return used, true
			}
			h := tcb.handlers[len(tcb.handlers)-1]
			tcb.handlers = tcb.handlers[:len(tcb.handlers)-1]
			tr = h(n.Err)

		case *CatchNode:
			tcb.handlers = append(tcb.handlers, n.Handler)
			tr = n.Body

		case *PopCatchNode:
			if len(tcb.handlers) == 0 {
				panic("core: PopCatchNode with empty handler stack")
			}
			tcb.handlers = tcb.handlers[:len(tcb.handlers)-1]
			tr = n.Cont

		case *CleanupNode:
			tcb.cleanups = append(tcb.cleanups, n.Fn)
			tr = n.Cont

		case *PopCleanupNode:
			if len(tcb.cleanups) == 0 {
				panic("core: PopCleanupNode with empty cleanup stack")
			}
			fn := tcb.cleanups[len(tcb.cleanups)-1]
			tcb.cleanups = tcb.cleanups[:len(tcb.cleanups)-1]
			if n.Run {
				fn()
			}
			tr = n.Cont

		case *WaitNode:
			// Park the thread. Arm links the record into its event source;
			// while we are inside Arm this worker fires no batch, so
			// virtual time cannot slip even if Wake runs synchronously. A
			// Wake firing later runs inside an event callback (a batch on
			// the worker), which equally pins the clock.
			rt.m.parks.Inc()
			n.park(rt, tcb)
			return used, false

		case *BlioNode:
			// The paper's blocking-I/O pool (§4.6) exists because a
			// blocking call holds a kernel thread. On a virtual clock the
			// effect is one clock event at the current timestamp: its
			// sequence number is taken here, so resumes fire in the next
			// batch in submission order. It runs inside the
			// clock's event batch and must not block. On a real clock it
			// gets its own goroutine — the Go runtime hands a blocked
			// syscall's thread off — so there is at most one per parked
			// thread, and Shutdown waits for it.
			rt.m.blioSubmit.Inc()
			effect := n.Effect
			resume := func() {
				tcb.trace = rt.runEffect(effect)
				rt.enqueue(tcb)
			}
			if rt.vc != nil {
				rt.vc.After(0, resume)
			} else {
				rt.wg.Add(1)
				go func() {
					defer rt.wg.Done()
					resume()
				}()
			}
			return used, false

		case nil:
			panic("core: nil trace node (thread resumed without a continuation?)")

		default:
			panic(fmt.Sprintf("core: unknown trace node %T", tr))
		}
	}
	// Batch exhausted: requeue behind other ready threads.
	rt.m.batchFull.Inc()
	tcb.trace = tr
	rt.enqueue(tcb)
	return used, false
}

// park parks tcb on w at a new generation and arms w's event source.
func (w *WaitNode) park(rt *Runtime, tcb *TCB) {
	s := w.state.Load()
	if s&waitParked != 0 || !w.state.CompareAndSwap(s, s+waitGen|waitParked) {
		panic("core: WaitNode parked twice (two threads forcing one trace?)")
	}
	w.rt, w.tcb, w.id = rt, tcb, tcb.id
	w.Arm()
}

// Wake makes the thread parked on w runnable at w.Cont. It must be called
// exactly once per park, from any goroutine; a second call panics.
func (w *WaitNode) Wake() {
	s := w.state.Load()
	if s&waitParked == 0 || !w.state.CompareAndSwap(s, s&^waitParked) {
		panic("core: WaitNode woken twice")
	}
	tcb, rt := w.tcb, w.rt
	if tcb.id != w.id {
		// Stale: the thread died while parked (its Arm panicked under
		// TrapPanics) and its block is dead or runs another thread.
		return
	}
	rt.m.resumes.Inc()
	tcb.trace = w.Cont
	rt.enqueue(tcb)
}

// runEffect performs an NBIO or Blio effect, optionally trapping panics
// into monadic exceptions.
func (rt *Runtime) runEffect(effect func() Trace) (tr Trace) {
	if !rt.opts.TrapPanics {
		return effect()
	}
	defer func() {
		if v := recover(); v != nil {
			tr = &ThrowNode{Err: &PanicError{Value: v}}
		}
	}()
	return effect()
}
