// Package vclock provides the two timing domains used by the runtime and
// the simulated OS kernel: real wall-clock time and deterministic virtual
// (discrete-event) time.
//
// The paper's evaluation mixes CPU-bound benchmarks (measured in wall-clock
// time) with I/O-bound benchmarks whose results are dominated by device
// latencies (disk seeks, network transfers). The original experiments used
// 2006 hardware; this reproduction replaces the devices with models that
// schedule completion events on a Clock. A VirtualClock advances only when
// every runnable activity in the system has quiesced, which makes the
// I/O-bound experiments deterministic and host-independent.
//
// # Ownership discipline
//
// The clock maintains a count of shared holds ("runnable activities").
// Time may only advance when the count is zero AND every registered
// quiescer agrees the system is idle. Any component that hands work to
// another component transfers ownership of a hold: the sender calls Enter
// before publishing the work and the receiver calls Exit once the work has
// either completed or been re-registered (for example as a pending device
// event).
//
// # Conservative parallel advancement
//
// This is a conservative parallel discrete-event clock. Scheduler workers
// do not touch the clock at all on their dispatch hot path; instead the
// scheduler's ready queue registers a quiescer (RegisterQuiescer) that
// reports, from its count of parked workers, whether every worker has
// drained its runnable threads. Advancement is a two-phase
// epoch barrier:
//
//  1. Rendezvous: workers drain runnable work within the current
//     timestamp. When a worker runs dry it parks and pokes Advance. Time
//     can move only when the hold count is zero and all quiescers report
//     idle — so no Enter can race the advance (Enter and the advance loop
//     serialize on the clock mutex, and once Enter returns, Now is frozen
//     until the matching Exit).
//  2. Dispatch: one coordinator (whichever goroutine observed quiescence)
//     pops the entire batch of events sharing the minimum timestamp from
//     the merged timer heap and fires them in deterministic (when, seq)
//     order. While the batch fires, the dispatch gate is closed: workers
//     woken by the batch's enqueues wait on the gate (Gate) rather than
//     popping mid-batch, so the work fanned out by one timestamp is fully
//     staged before any worker consumes it. The gate then opens and the
//     workers drain the new timestamp in parallel.
package vclock

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Time is a point in simulated or real time, in nanoseconds from an
// arbitrary epoch (the creation of the clock).
type Time int64

// Duration is a span of time in nanoseconds. It converts directly to and
// from time.Duration.
type Duration = time.Duration

// Clock abstracts over real and virtual time. Device models (disk,
// network) and runtimes are written against this interface so the same
// code runs in both timing domains.
type Clock interface {
	// Now reports the current time.
	Now() Time
	// Enter declares one more runnable activity. Virtual time cannot
	// advance while any activity is runnable.
	Enter()
	// Exit declares that a runnable activity has quiesced. On a virtual
	// clock, the call that drops the count to zero advances time to the
	// next pending event and runs its callbacks.
	Exit()
	// After schedules fn to run d from now. The callback runs during a
	// dispatch batch while the gate is closed; if it hands work onward to
	// an activity that outlives the callback it must transfer a hold
	// (Enter before publishing).
	After(d Duration, fn func()) *Timer
}

// Timer is a handle to a scheduled callback.
type Timer struct {
	owner   timerOwner
	when    Time
	seq     uint64
	fn      func()
	stopped bool
	index   int // heap index; -1 when not in the heap
}

// Stop cancels the timer if it has not fired. It reports whether the
// timer was stopped before firing.
func (t *Timer) Stop() bool {
	if t == nil || t.owner == nil {
		return false
	}
	switch o := t.owner.(type) {
	case *VirtualClock:
		return o.stopTimer(t)
	case *realTimer:
		if o.stopped {
			return false
		}
		if o.t.Stop() {
			o.stopped = true
			return true
		}
		return false
	}
	return false
}

// timerOwner points back at whichever clock created the timer so Stop can
// dispatch without the caller caring which domain it is in.
type timerOwner interface{ isTimerOwner() }

func (*VirtualClock) isTimerOwner() {}

type realTimer struct {
	t       *time.Timer
	stopped bool
}

func (*realTimer) isTimerOwner() {}

// ---------------------------------------------------------------------------
// Virtual clock
// ---------------------------------------------------------------------------

// VirtualClock is a conservative parallel discrete-event clock. Time
// advances in jumps to the next scheduled timestamp, and only at an epoch
// barrier: the shared hold count is zero and every registered quiescer
// reports idle. All events sharing the minimum timestamp fire as one
// batch in (when, seq) order behind a closed dispatch gate.
//
// All hold-count mutation happens under mu, which closes the race the old
// lock-free design had: an Exit 0-transition could begin advancing while
// a concurrent hand-off Enter was in flight, so time moved under a held
// Enter. Here the advance loop and Enter serialize on mu — once Enter
// returns, Now cannot change until the matching Exit.
type VirtualClock struct {
	now atomic.Int64 // written under mu; read lock-free

	mu        sync.Mutex
	shared    int64 // hold count (Enter/Exit)
	seq       uint64
	events    eventHeap
	running   bool // a dispatch loop is executing batches
	quiescers []func() bool
	batchBuf  []*Timer

	// Dispatch gate: closed while a batch of same-timestamp events is
	// firing, so workers woken mid-batch stage behind Gate instead of
	// consuming a half-fanned-out timestamp.
	gateClosed atomic.Bool
	gateMu     sync.Mutex
	gateCond   *sync.Cond

	// OnIdle, if non-nil, is invoked (with the clock unlocked) when the
	// system is quiescent and no events are pending. This usually
	// indicates deadlock in a simulation and is invaluable in tests.
	OnIdle func()
}

// NewVirtual returns a virtual clock at time zero.
func NewVirtual() *VirtualClock {
	c := &VirtualClock{}
	c.gateCond = sync.NewCond(&c.gateMu)
	return c
}

// Now reports the current virtual time.
func (c *VirtualClock) Now() Time { return Time(c.now.Load()) }

// Enter increments the hold count. Once Enter returns, Now is frozen
// until the matching Exit.
func (c *VirtualClock) Enter() {
	c.mu.Lock()
	c.shared++
	c.mu.Unlock()
}

// Exit decrements the hold count and, on the 0-transition, attempts an
// epoch advance.
func (c *VirtualClock) Exit() {
	c.mu.Lock()
	if c.shared <= 0 {
		c.mu.Unlock()
		panic("vclock: Exit without matching Enter")
	}
	c.shared--
	if c.shared == 0 {
		c.maybeAdvanceLocked()
	}
	c.mu.Unlock()
}

// RegisterQuiescer adds a predicate consulted before any time advance:
// the clock is quiescent only when the hold count is zero and every
// quiescer returns true. The scheduler's ready queue registers one that
// reports whether all workers are parked with no queued threads.
func (c *VirtualClock) RegisterQuiescer(fn func() bool) {
	c.mu.Lock()
	c.quiescers = append(c.quiescers, fn)
	c.mu.Unlock()
}

// After schedules fn to run at Now()+d in (when, seq) order.
func (c *VirtualClock) After(d Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	c.seq++
	t := &Timer{owner: c, when: Time(c.now.Load()) + Time(d), seq: c.seq, fn: fn, index: -1}
	c.events.push(t)
	// If the system is already quiescent, this event is immediately due.
	c.maybeAdvanceLocked()
	c.mu.Unlock()
	return t
}

// ReserveSeq allocates and returns the next sequence number without
// scheduling anything. External timer structures (the hierarchical timer
// wheel) reserve a position in the global event order at scheduling time,
// park the callback outside the heap, and later hand it back via
// ScheduleReserved — so deferring heap insertion never changes the order
// in which same-timestamp events fire.
func (c *VirtualClock) ReserveSeq() uint64 {
	c.mu.Lock()
	c.seq++
	s := c.seq
	c.mu.Unlock()
	return s
}

// ScheduleReserved schedules fn at the absolute time when under a
// sequence number previously obtained from ReserveSeq. The event fires
// exactly as if it had been scheduled with After at reservation time:
// (when, seq) ordering is preserved no matter how late the handoff
// happens, as long as when has not yet been reached.
func (c *VirtualClock) ScheduleReserved(when Time, seq uint64, fn func()) *Timer {
	c.mu.Lock()
	if int64(when) < c.now.Load() {
		when = Time(c.now.Load())
	}
	t := &Timer{owner: c, when: when, seq: seq, fn: fn, index: -1}
	c.events.push(t)
	c.maybeAdvanceLocked()
	c.mu.Unlock()
	return t
}

// Advance attempts an epoch advance if the system is quiescent. Workers
// call it (via the ready queue's idle hook) after draining their run
// queues; it returns without effect when holds are outstanding, another
// dispatch loop is running, or any quiescer reports activity.
func (c *VirtualClock) Advance() {
	c.mu.Lock()
	c.maybeAdvanceLocked()
	c.mu.Unlock()
}

// Gate blocks while a dispatch batch is firing. Queue pop loops call it
// before consuming work so a timestamp's events are fully fanned out
// before any worker starts on them. The fast path is one atomic load.
func (c *VirtualClock) Gate() {
	if !c.gateClosed.Load() {
		return
	}
	c.gateMu.Lock()
	for c.gateClosed.Load() {
		c.gateCond.Wait()
	}
	c.gateMu.Unlock()
}

// GateClosed reports whether a dispatch batch is currently firing.
func (c *VirtualClock) GateClosed() bool { return c.gateClosed.Load() }

func (c *VirtualClock) closeGate() {
	c.gateMu.Lock()
	c.gateClosed.Store(true)
	c.gateMu.Unlock()
}

func (c *VirtualClock) openGate() {
	c.gateMu.Lock()
	c.gateClosed.Store(false)
	c.gateCond.Broadcast()
	c.gateMu.Unlock()
}

func (c *VirtualClock) stopTimer(t *Timer) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.stopped || t.index < 0 {
		return false
	}
	c.events.remove(t.index)
	t.stopped = true
	t.fn = nil // release captured TCBs/buffers immediately
	return true
}

// quiescentLocked reports whether every registered quiescer agrees the
// system is idle. Called with c.mu held; quiescers may take their own
// locks (the ready queue's), never the clock's.
func (c *VirtualClock) quiescentLocked() bool {
	for _, q := range c.quiescers {
		if !q() {
			return false
		}
	}
	return true
}

// maybeAdvanceLocked is the epoch barrier's second phase. Called with
// c.mu held; temporarily unlocks around callbacks and OnIdle.
//
// Each loop iteration: verify quiescence (hold count zero, all quiescers
// idle), advance now to the minimum pending timestamp, pop the entire
// batch of events at that timestamp, close the dispatch gate, and fire
// the batch in (when, seq) order. Workers woken by the batch's enqueues
// stage behind the gate until the whole batch has fired. The loop then
// re-checks: if the batch handed work to workers or took holds,
// advancement stops until the system re-quiesces.
func (c *VirtualClock) maybeAdvanceLocked() {
	if c.running {
		// A dispatch loop is already executing higher in the stack or on
		// another goroutine; it re-checks quiescence after every batch.
		return
	}
	c.running = true
	for c.shared == 0 && c.quiescentLocked() {
		if len(c.events) == 0 {
			c.running = false
			if c.OnIdle != nil {
				fn := c.OnIdle
				c.mu.Unlock()
				fn()
				c.mu.Lock()
			}
			return
		}
		minWhen := c.events[0].when
		if int64(minWhen) > c.now.Load() {
			c.now.Store(int64(minWhen))
		}
		batch := c.batchBuf[:0]
		for len(c.events) > 0 && c.events[0].when == minWhen {
			batch = append(batch, c.events.remove(0))
		}
		c.closeGate()
		c.mu.Unlock()
		for _, t := range batch {
			fn := t.fn
			t.fn = nil // fired: drop the closure so dead entries hold nothing
			if fn != nil {
				fn()
			}
		}
		c.mu.Lock()
		for i := range batch {
			batch[i] = nil
		}
		c.batchBuf = batch[:0]
		c.openGate()
	}
	c.running = false
}

// Pending reports the number of scheduled, unfired events. Intended for
// tests and deadlock reports.
func (c *VirtualClock) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

// Busy reports the current hold count. Intended for tests.
func (c *VirtualClock) Busy() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shared
}

// eventHeap is a binary min-heap ordered by (when, seq) so simultaneous
// events fire in scheduling order, which keeps simulations deterministic;
// no two timers share a seq, so pop order cannot depend on how the heap is
// arranged. It is written on []*Timer rather than through container/heap:
// every event of a simulation passes through it, and the interface calls
// per sift step showed in profiles. A queued timer's index names its slot.
type eventHeap []*Timer

func (a *Timer) before(b *Timer) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(t *Timer) {
	*h = append(*h, t)
	h.up(len(*h)-1, t)
}

// remove takes the timer in slot i out of the heap and returns it; slot 0
// is the minimum.
func (h *eventHeap) remove(i int) *Timer {
	old := *h
	t := old[i]
	t.index = -1
	n := len(old) - 1
	last := old[n]
	old[n] = nil
	*h = old[:n]
	if i < n {
		h.down(i, last)
		h.up(last.index, last) // stays put if down moved it
	}
	return t
}

// up places t at slot i or above, moving later ancestors down.
func (h eventHeap) up(i int, t *Timer) {
	for i > 0 {
		parent := (i - 1) / 2
		if !t.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].index = i
		i = parent
	}
	h[i] = t
	t.index = i
}

// down places t at slot i or below, moving earlier children up.
func (h eventHeap) down(i int, t *Timer) {
	for child := 2*i + 1; child < len(h); child = 2*i + 1 {
		if r := child + 1; r < len(h) && h[r].before(h[child]) {
			child = r
		}
		if !h[child].before(t) {
			break
		}
		h[i] = h[child]
		h[i].index = i
		i = child
	}
	h[i] = t
	t.index = i
}

// ---------------------------------------------------------------------------
// Real clock
// ---------------------------------------------------------------------------

// RealClock measures wall-clock time. Enter and Exit are no-ops: in the
// real domain, time advances regardless of what the program does.
type RealClock struct {
	start time.Time
	seq   atomic.Uint64
}

// NewReal returns a wall-clock Clock with its epoch at the call.
func NewReal() *RealClock { return &RealClock{start: time.Now()} }

// Now reports nanoseconds since the clock was created.
func (c *RealClock) Now() Time { return Time(time.Since(c.start)) }

// Enter is a no-op on a real clock.
func (c *RealClock) Enter() {}

// Exit is a no-op on a real clock.
func (c *RealClock) Exit() {}

// After schedules fn on a new goroutine after d of wall-clock time.
func (c *RealClock) After(d Duration, fn func()) *Timer {
	rt := &realTimer{}
	rt.t = time.AfterFunc(d, fn)
	return &Timer{owner: rt}
}

func (t Time) String() string { return fmt.Sprintf("t+%s", time.Duration(t)) }
