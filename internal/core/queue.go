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
// On a virtual clock the queue binds the clock (bindClock), and its one
// worker is the clock's event loop: when the ring runs dry, pop fires the
// next timestamp's batch before it sleeps.
type sharedQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	ring   []*TCB
	head   int
	count  int
	closed bool

	vc  *vclock.VirtualClock // nil on a real clock
	due bool                 // the clock may have a batch to fire
}

func newSharedQueue() *sharedQueue {
	q := &sharedQueue{ring: make([]*TCB, 64)}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// bindClock makes the queue's worker vc's event loop. Must be called
// before the worker pops.
func (q *sharedQueue) bindClock(vc *vclock.VirtualClock) {
	q.vc, q.due = vc, true
	vc.Bind(q.kick)
}

// kick is the clock's wake hook: the hold count reached zero, or an event
// was armed with none outstanding, so a batch may be due. It runs under
// the clock's lock; pop never holds q.mu while it calls into the clock.
func (q *sharedQueue) kick() {
	q.mu.Lock()
	q.due = true
	q.mu.Unlock()
	q.cond.Signal()
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

// pop removes the oldest thread, blocking until one is available. On a
// virtual clock a dry ring first fires the clock's next batch, and the
// worker sleeps only until a push or a kick. It returns ok=false once the
// queue is closed and there is nothing further to do.
func (q *sharedQueue) pop() (*TCB, bool) {
	q.mu.Lock()
	for q.count == 0 && !q.closed {
		if !q.due {
			q.cond.Wait()
			continue
		}
		q.due = false
		q.mu.Unlock()
		fired := q.vc.Advance()
		q.mu.Lock()
		q.due = q.due || fired
	}
	if q.count == 0 {
		q.mu.Unlock()
		if q.vc != nil {
			// Final advance: pending timers may still fire; their resumes
			// hit the closed queue and are discarded with full accounting.
			q.vc.Bind(nil)
		}
		return nil, false
	}
	t := q.take()
	q.mu.Unlock()
	return t, true
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
