package core

import (
	"sync"

	"hybrid/internal/vclock"
)

// sharedQueue is the scheduler's task queue (Figure 14's arrows): one
// global FIFO ring, the paper's ready_queue (a Chan in the Haskell
// implementation), which every worker_main loop pops. It is the runtime's
// only queue: blocking effects go to a clock event or a goroutine, not to
// a pool of their own.
//
// When the runtime runs in the virtual timing domain, the ready queue is
// bound to the clock (bindClock) and becomes the clock's quiescer: virtual
// time advances only when every worker is parked and no thread is queued.
// Workers entering pop also stage behind the clock's dispatch gate, so a
// timestamp's event batch is fully fanned out before any worker consumes
// the threads it made runnable.
type sharedQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	ring   []*TCB
	head   int
	count  int
	closed bool

	// Virtual-clock binding (nil for real-clock runs).
	// A worker is "parked" from the moment it finds the queue dry until it
	// takes work or exits, including the window where it is driving the
	// clock's dispatch loop — it holds no threads then, so it does not
	// obstruct quiescence.
	vc      *vclock.VirtualClock
	workers int
	nparked int
	exited  int // workers gone after close; they count as parked forever
}

func newSharedQueue() *sharedQueue {
	q := &sharedQueue{ring: make([]*TCB, 64)}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// bindClock makes the queue the virtual clock's quiescer for the given
// number of workers. Must be called before any worker pops.
func (q *sharedQueue) bindClock(vc *vclock.VirtualClock, workers int) {
	q.vc = vc
	q.workers = workers
	vc.RegisterQuiescer(q.idle)
}

// idle is the clock's quiescer: no queued threads and every worker parked
// (or exited). Any activity that could make new work runnable while all
// workers are parked must hold the clock (Enter before publishing), so
// once this reports true under the clock lock, it stays true until the
// clock dispatches.
func (q *sharedQueue) idle() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.count == 0 && q.nparked+q.exited == q.workers
}

// push appends a runnable thread and wakes one blocked worker. It reports
// whether the thread was accepted: a closed queue rejects, and the caller
// must then account for the thread itself (mark it done) — silently
// dropping a TCB wedges WaitIdle and virtual-clock quiescence.
func (q *sharedQueue) push(t *TCB) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.grow()
	q.ring[(q.head+q.count)%len(q.ring)] = t
	q.count++
	q.mu.Unlock()
	q.cond.Signal()
	return true
}

// grow doubles the ring when full. Called with q.mu held.
func (q *sharedQueue) grow() {
	if q.count < len(q.ring) {
		return
	}
	bigger := make([]*TCB, len(q.ring)*2)
	for i := 0; i < q.count; i++ {
		bigger[i] = q.ring[(q.head+i)%len(q.ring)]
	}
	q.ring = bigger
	q.head = 0
}

// pop removes the oldest thread, blocking until one is available. It
// returns ok=false once the queue is closed and there is nothing further
// to do.
func (q *sharedQueue) pop() (*TCB, bool) {
	q.mu.Lock()
	if q.vc == nil {
		// Classic path: real-clock runtimes.
		for q.count == 0 && !q.closed {
			q.cond.Wait()
		}
		if q.count == 0 {
			q.mu.Unlock()
			return nil, false
		}
		t := q.take()
		q.mu.Unlock()
		return t, true
	}
	// Clock-bound path: the worker is one leg of the epoch barrier.
	for {
		if q.count == 0 && q.closed {
			q.exited++
			q.mu.Unlock()
			// Final advance: pending timers may still fire; their resumes
			// hit the closed queue and are discarded with full accounting.
			q.vc.Advance()
			return nil, false
		}
		if q.vc.GateClosed() {
			// A timestamp's event batch is mid-flight: stage until the
			// whole batch has fanned out.
			q.mu.Unlock()
			q.vc.Gate()
			q.mu.Lock()
			continue
		}
		if q.count > 0 {
			t := q.take()
			q.mu.Unlock()
			return t, true
		}
		// Dry: park and offer to drive the clock. While inside Advance the
		// worker stays counted as parked — it holds no work.
		q.nparked++
		q.mu.Unlock()
		q.vc.Advance()
		q.mu.Lock()
		if q.count == 0 && !q.closed && !q.vc.GateClosed() {
			q.cond.Wait()
		}
		q.nparked--
	}
}

// take removes the oldest thread. Called with q.mu held and count > 0.
func (q *sharedQueue) take() *TCB {
	t := q.ring[q.head]
	q.ring[q.head] = nil
	q.head = (q.head + 1) % len(q.ring)
	q.count--
	return t
}

// close releases all blocked workers and returns the threads still
// queued, so the caller can account for each discarded one.
func (q *sharedQueue) close() []*TCB {
	q.mu.Lock()
	q.closed = true
	var drained []*TCB
	for q.count > 0 {
		drained = append(drained, q.take())
	}
	q.mu.Unlock()
	q.cond.Broadcast()
	return drained
}

// size reports the number of queued threads (diagnostics).
func (q *sharedQueue) size() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.count
}
