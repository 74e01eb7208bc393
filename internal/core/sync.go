package core

import "sync"

// This file implements the paper's blocking synchronization primitives
// (§4.7): a mutex is "a memory reference that points to a pair (l, q)
// where l indicates whether the mutex is locked, and q is a linked list of
// thread traces blocking on this mutex". Each primitive keeps a queue of
// parked resume functions and dispatches them to the scheduler's ready
// queue, exactly the paper's design, generalized through Suspend.
//
// Two queues are written out, Chan's and Semaphore's: an MVar is a Chan of
// capacity one and a Mutex a Semaphore of one permit, so who is admitted
// when a slot or a permit frees up is spelled once. WaitGroup, which
// releases all its waiters at once, keeps a queue of its own.
//
// A plain Go sync.Mutex guards each primitive's own state; it is held only
// for pointer manipulation, never across a blocking point, so it is safe
// to use from any worker event loop. A parked thread's resume runs after
// that lock is released.

// popFront removes and returns the head of *q, leaving the zero value in
// the slot it vacates so the backing array keeps neither the value nor a
// parked thread's resume alive.
func popFront[T any](q *[]T) (x T) {
	x, (*q)[0] = (*q)[0], x
	*q = (*q)[1:]
	return x
}

// Chan is a bounded FIFO channel. Send blocks while full; Recv blocks
// while empty. Capacity zero makes it a rendezvous channel, and the zero
// Chan is one.
type Chan[A any] struct {
	mu      sync.Mutex
	cap     int
	buf     []A
	senders []chanSend[A]
	readers []func(A)
}

type chanSend[A any] struct {
	value  A
	resume func(Unit)
}

// NewChan returns a channel with the given capacity (>= 0).
func NewChan[A any](capacity int) *Chan[A] { return &Chan[A]{cap: max(capacity, 0)} }

// Send enqueues x, blocking while the channel is full.
func (c *Chan[A]) Send(x A) M[Unit] {
	return Suspend(func(resume func(Unit)) {
		c.mu.Lock()
		if len(c.readers) > 0 {
			r := popFront(&c.readers)
			c.mu.Unlock()
			r(x)
			resume(Unit{})
			return
		}
		if len(c.buf) < c.cap {
			c.buf = append(c.buf, x)
			c.mu.Unlock()
			resume(Unit{})
			return
		}
		c.senders = append(c.senders, chanSend[A]{value: x, resume: resume})
		c.mu.Unlock()
	})
}

// Recv dequeues a value, blocking while the channel is empty.
func (c *Chan[A]) Recv() M[A] {
	return Suspend(func(resume func(A)) {
		if x, ok := c.recv(resume); ok {
			resume(x)
		}
	})
}

// recv dequeues the oldest value, reporting whether there was one: the
// buffer's head, whose freed slot the oldest parked sender then fills, or
// with nothing buffered (a rendezvous) that sender's value itself; the
// sender is resumed either way. With no value, a non-nil park joins the
// readers, for the Send that hands it one.
func (c *Chan[A]) recv(park func(A)) (x A, ok bool) {
	var admitted func(Unit)
	c.mu.Lock()
	switch {
	case len(c.buf) > 0:
		x = popFront(&c.buf)
		if len(c.senders) > 0 {
			s := popFront(&c.senders)
			c.buf = append(c.buf, s.value)
			admitted = s.resume
		}
	case len(c.senders) > 0:
		s := popFront(&c.senders)
		x, admitted = s.value, s.resume
	default:
		if park != nil {
			c.readers = append(c.readers, park)
		}
		c.mu.Unlock()
		return x, false
	}
	c.mu.Unlock()
	if admitted != nil {
		admitted(Unit{})
	}
	return x, true
}

// Len reports the number of buffered values.
func (c *Chan[A]) Len() M[int] {
	return NBIO(func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.buf)
	})
}

// MVar is Concurrent Haskell's synchronized one-place buffer, which §4.7
// notes "can also be similarly implemented" as a scheduler extension: Take
// blocks while empty, Put blocks while full. It is a Chan of capacity one,
// so construct it with NewMVar; the zero MVar is a rendezvous.
type MVar[A any] struct {
	ch Chan[A]
}

// NewMVar returns an empty MVar.
func NewMVar[A any]() *MVar[A] { return &MVar[A]{ch: Chan[A]{cap: 1}} }

// Take removes and returns the value, blocking while the MVar is empty. A
// Put parked on the full MVar refills it at once.
func (v *MVar[A]) Take() M[A] { return v.ch.Recv() }

// Put stores a value, blocking while the MVar is full.
func (v *MVar[A]) Put(x A) M[Unit] { return v.ch.Send(x) }

// TryTake removes the value if present, returning ok=false otherwise. Like
// Take, it admits the oldest parked Put into the emptied MVar.
func (v *MVar[A]) TryTake() M[struct {
	Value A
	OK    bool
}] {
	return NBIO(func() (r struct {
		Value A
		OK    bool
	}) {
		r.Value, r.OK = v.ch.recv(nil)
		return r
	})
}

// Semaphore is a counting semaphore for monadic threads.
type Semaphore struct {
	mu      sync.Mutex
	permits int
	waiters []func(Unit)
}

// NewSemaphore returns a semaphore with the given number of permits.
func NewSemaphore(permits int) *Semaphore { return &Semaphore{permits: permits} }

// Acquire takes one permit, parking the thread behind earlier waiters
// while none is free. Wakeups are FIFO, so the semaphore is fair.
func (s *Semaphore) Acquire() M[Unit] {
	return Suspend(func(resume func(Unit)) {
		if s.acquire(resume) {
			resume(Unit{})
		}
	})
}

// acquire takes a free permit, reporting whether it did. With none free, a
// non-nil park joins the waiters, for the release that hands it a permit.
func (s *Semaphore) acquire(park func(Unit)) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.permits > 0 {
		s.permits--
		return true
	}
	if park != nil {
		s.waiters = append(s.waiters, park)
	}
	return false
}

// Release returns one permit, waking the oldest waiter if any.
func (s *Semaphore) Release() M[Unit] { return Do(s.ReleaseNow) }

// ReleaseNow is Release as a plain function, for a caller outside the
// monad: an Ensure cleanup, which may run on the runtime's abort path.
func (s *Semaphore) ReleaseNow() { s.release(false) }

// Waiting reports how many threads are parked in Acquire.
func (s *Semaphore) Waiting() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.waiters)
}

// release returns one permit, handing it straight to the oldest waiter if
// one is parked. With once set it refuses, reporting false, when a permit
// is already free: the second Unlock of a one-permit Mutex.
func (s *Semaphore) release(once bool) bool {
	s.mu.Lock()
	if len(s.waiters) == 0 {
		ok := !once || s.permits == 0
		if ok {
			s.permits++
		}
		s.mu.Unlock()
		return ok
	}
	next := popFront(&s.waiters)
	s.mu.Unlock()
	next(Unit{}) // the permit passes to next
	return true
}

// Mutex is a blocking mutual-exclusion lock for monadic threads (the
// paper's sys_mutex): a Semaphore of one permit, so construct it with
// NewMutex; the zero Mutex is locked.
type Mutex struct {
	s Semaphore
}

// NewMutex returns an unlocked mutex.
func NewMutex() *Mutex { return &Mutex{s: Semaphore{permits: 1}} }

// Lock acquires the mutex, parking the thread behind earlier waiters if
// it is held. Wakeups are FIFO, so the lock is fair.
func (m *Mutex) Lock() M[Unit] { return m.s.Acquire() }

// Unlock releases the mutex. If threads are waiting, ownership passes
// directly to the oldest waiter, which is dispatched to the ready queue.
func (m *Mutex) Unlock() M[Unit] {
	return Do(func() {
		if !m.s.release(true) {
			panic("core: Unlock of unlocked Mutex")
		}
	})
}

// WithLock runs body while holding the mutex, releasing it on success or
// exception.
func (m *Mutex) WithLock(body M[Unit]) M[Unit] {
	return Then(m.Lock(), Finally(body, m.Unlock()))
}

// TryLock acquires the mutex only if it is free, reporting whether it did.
func (m *Mutex) TryLock() M[bool] {
	return NBIO(func() bool { return m.s.acquire(nil) })
}

// WaitGroup lets a thread wait for a set of other threads to call Done.
type WaitGroup struct {
	mu      sync.Mutex
	count   int
	waiters []func(Unit)
}

// NewWaitGroup returns a WaitGroup expecting n Done calls.
func NewWaitGroup(n int) *WaitGroup { return &WaitGroup{count: n} }

// Done signals one completion; when the count reaches zero all waiters
// are released.
func (w *WaitGroup) Done() M[Unit] {
	return Do(func() {
		w.mu.Lock()
		w.count--
		if w.count > 0 {
			w.mu.Unlock()
			return
		}
		waiters := w.waiters
		w.waiters = nil
		w.mu.Unlock()
		for _, resume := range waiters {
			resume(Unit{})
		}
	})
}

// Wait blocks until the count reaches zero.
func (w *WaitGroup) Wait() M[Unit] {
	return Suspend(func(resume func(Unit)) {
		w.mu.Lock()
		if w.count <= 0 {
			w.mu.Unlock()
			resume(Unit{})
			return
		}
		w.waiters = append(w.waiters, resume)
		w.mu.Unlock()
	})
}
