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
// Time may only advance when the count is zero. Any component that hands
// work to another component transfers ownership of a hold: the sender
// calls Enter before publishing the work and the receiver calls Exit once
// the work has either completed or been re-registered (for example as a
// pending device event).
//
// # One event loop
//
// A runtime binds the clock (Bind), and its one worker becomes the
// discrete-event loop: when its ready queue runs dry it calls Advance,
// which fires the next timestamp's batch inline if no hold is
// outstanding, and then it pops again. An Exit to zero, or an arm made
// while the count is zero, wakes the worker through the hook given to
// Bind instead of advancing on the calling goroutine, so every callback
// runs on the worker. A clock with no runtime bound advances on whichever
// goroutine drops the last hold or arms an event with none outstanding.
package vclock

import (
	"fmt"
	"math"
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
	// clock, the call that drops the count to zero lets time advance to
	// the next pending event.
	Exit()
	// After schedules fn to run d from now. On a virtual clock the
	// callback runs inside its timestamp's batch; if it hands work onward
	// to an activity that outlives the callback it must transfer a hold
	// (Enter before publishing).
	After(d Duration, fn func()) *Timer
	// NewTimer returns an owned timer: fn is bound once, and the owner
	// arms it with Reset as often as it likes, so an arm allocates
	// nothing. The same hand-off rules as After apply to fn.
	NewTimer(fn func()) *Timer
}

// Timer is a handle to a scheduled callback. After makes a one-shot timer
// that forgets fn once it fires or stops; NewTimer makes an owned timer
// that keeps fn and is re-armed with Reset.
//
// On a virtual clock Stop and Reset are exact: a stopped timer never
// fires, and a re-armed one fires only at its new deadline, even when an
// earlier callback of the batch it was due in stops or re-arms it. On a
// real clock they are the host timer's: a callback already under way
// still runs, so its owner re-checks its own deadline or generation.
// Either way the owner serializes Reset and Stop (one lock, or one
// goroutine).
type Timer struct {
	vc    *VirtualClock // nil on a real clock
	rt    *time.Timer   // real clock: the host timer
	fn    func()        // virtual clock: the callback
	when  Time
	seq   uint64 // virtual: this arm's place in (when, seq) order; 0 while disarmed
	index int    // virtual: heap index; -1 when not in the heap
	owned bool   // fn survives firing and Stop
}

// Stop cancels the timer if it has not fired. It reports whether the
// timer was stopped before firing.
func (t *Timer) Stop() bool {
	switch {
	case t == nil:
		return false
	case t.vc != nil:
		return t.vc.stopTimer(t)
	case t.rt != nil:
		return t.rt.Stop()
	}
	return false
}

// Reset arms the timer to fire d from now, cancelling any arm still
// pending. On a virtual clock the arm takes the clock's next sequence
// number, so it fires exactly where an After call made at this moment
// would. Reset is for owned timers; a one-shot timer has no callback left
// to re-arm once it has fired.
func (t *Timer) Reset(d Duration) {
	if t.vc != nil {
		t.vc.resetTimer(t, d)
		return
	}
	t.rt.Reset(d)
}

// ---------------------------------------------------------------------------
// Virtual clock
// ---------------------------------------------------------------------------

// VirtualClock is a discrete-event clock. Time advances in jumps to the
// next scheduled timestamp, and only while the hold count is zero. All
// events sharing the minimum timestamp fire as one batch in (when, seq)
// order.
//
// The hold count and the advance serialize on mu: once Enter returns, Now
// cannot change until the matching Exit.
type VirtualClock struct {
	now atomic.Int64 // written under mu; read lock-free

	mu       sync.Mutex
	shared   int64 // hold count (Enter/Exit)
	seq      uint64
	events   eventHeap
	running  bool   // a batch is firing
	wake     func() // set by Bind: the bound event loop fires, and this wakes it
	batchBuf []firing
}

// NewVirtual returns a virtual clock at time zero.
func NewVirtual() *VirtualClock { return &VirtualClock{} }

// Now reports the current virtual time.
func (c *VirtualClock) Now() Time { return Time(c.now.Load()) }

// Enter increments the hold count. Once Enter returns, Now is frozen
// until the matching Exit.
func (c *VirtualClock) Enter() {
	c.mu.Lock()
	c.shared++
	c.mu.Unlock()
}

// Exit decrements the hold count; the 0-transition lets time advance.
func (c *VirtualClock) Exit() {
	c.mu.Lock()
	if c.shared <= 0 {
		c.mu.Unlock()
		panic("vclock: Exit without matching Enter")
	}
	c.shared--
	c.maybeAdvanceLocked()
	c.mu.Unlock()
}

// Bind hands batch firing to one event loop: from now on an Exit to zero,
// or an arm made while the count is zero, calls wake instead of advancing,
// and the loop fires each batch itself with Advance. wake runs with the
// clock locked, so it may take only locks that the loop never holds while
// it calls into the clock. Bind(nil) unbinds, and advances as an unbound
// clock would.
func (c *VirtualClock) Bind(wake func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if wake != nil && c.wake != nil {
		panic("vclock: clock already bound to an event loop")
	}
	c.wake = wake
	c.maybeAdvanceLocked()
}

// After schedules fn to run at Now()+d in (when, seq) order.
func (c *VirtualClock) After(d Duration, fn func()) *Timer {
	t := &Timer{vc: c, fn: fn, index: -1}
	c.resetTimer(t, d)
	return t
}

// NewTimer returns an owned timer bound to fn; it is disarmed until Reset.
func (c *VirtualClock) NewTimer(fn func()) *Timer {
	return &Timer{vc: c, fn: fn, index: -1, owned: true}
}

// resetTimer (re-)arms t at Now()+d under the next sequence number,
// sifting it in place when it is already queued.
func (c *VirtualClock) resetTimer(t *Timer, d Duration) {
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	c.seq++
	t.when = Time(c.now.Load()) + Time(d)
	t.seq = c.seq
	if t.index >= 0 {
		c.events.fix(t.index)
	} else {
		c.events.push(t)
	}
	// With no hold outstanding, this event may be due at once.
	c.maybeAdvanceLocked()
	c.mu.Unlock()
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
	t := &Timer{vc: c, when: when, seq: seq, fn: fn, index: -1}
	c.events.push(t)
	c.maybeAdvanceLocked()
	c.mu.Unlock()
	return t
}

// Advance fires the next timestamp's batch if no hold is outstanding and
// no batch is already firing, and reports whether it fired one. The bound
// event loop calls it whenever it runs out of work.
func (c *VirtualClock) Advance() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fireLocked()
}

// stopTimer disarms t, whether it is still in the heap or already popped
// into the firing batch; the batch loop skips an entry whose seq no
// longer matches.
func (c *VirtualClock) stopTimer(t *Timer) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.seq == 0 {
		return false
	}
	if t.index >= 0 {
		c.events.remove(t.index)
	}
	t.seq = 0
	if !t.owned {
		t.fn = nil // release captured TCBs/buffers immediately
	}
	return true
}

// firing is one popped entry of a dispatch batch: the timer and the arm
// it was popped under.
type firing struct {
	t   *Timer
	seq uint64
}

// maybeAdvanceLocked runs with c.mu held after the hold count drops or an
// event is armed. With no hold outstanding it wakes the bound event loop,
// or, with none bound, fires batches itself until a hold is taken or
// nothing is pending. A batch already firing, higher in the stack or on
// another goroutine, is followed by a re-check, so it needs neither.
func (c *VirtualClock) maybeAdvanceLocked() {
	switch {
	case c.running || c.shared != 0:
	case c.wake != nil:
		c.wake()
	default:
		for c.fireLocked() {
		}
	}
}

// fireLocked fires one batch if no hold is outstanding and none is
// firing: it advances now to the minimum pending timestamp, pops every
// event at that timestamp, and fires them in (when, seq) order. An entry
// fires only if its timer still carries the seq it was popped under: an
// earlier callback of the batch may have stopped or re-armed it. Called
// with c.mu held; it unlocks around each callback.
func (c *VirtualClock) fireLocked() bool {
	if c.running || c.shared != 0 || len(c.events) == 0 {
		return false
	}
	c.running = true
	minWhen := c.events[0].when
	if int64(minWhen) > c.now.Load() {
		c.now.Store(int64(minWhen))
	}
	batch := c.batchBuf[:0]
	for len(c.events) > 0 && c.events[0].when == minWhen {
		t := c.events.remove(0)
		batch = append(batch, firing{t, t.seq})
	}
	for _, e := range batch {
		t := e.t
		if t.seq != e.seq {
			continue // stopped or re-armed by an earlier callback
		}
		t.seq = 0
		fn := t.fn
		if !t.owned {
			t.fn = nil // fired: drop the closure so dead entries hold nothing
		}
		if fn != nil {
			c.mu.Unlock()
			fn()
			c.mu.Lock()
		}
	}
	clear(batch)
	c.batchBuf = batch[:0]
	c.running = false
	return true
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

// fix restores heap order after the timer in slot i changed its key.
func (h eventHeap) fix(i int) {
	t := h[i]
	h.down(i, t)
	h.up(t.index, t)
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
		old[i] = last
		h.fix(i) // up is a no-op if down moved it
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
	return &Timer{rt: time.AfterFunc(d, fn)}
}

// NewTimer returns an owned timer bound to fn. The host timer is made
// here, stopped, so a Reset never writes the handle that a callback
// already under way on another goroutine may read.
func (c *RealClock) NewTimer(fn func()) *Timer {
	rt := time.AfterFunc(time.Duration(math.MaxInt64), fn)
	rt.Stop()
	return &Timer{rt: rt, owned: true}
}

func (t Time) String() string { return fmt.Sprintf("t+%s", time.Duration(t)) }
