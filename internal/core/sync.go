package core

import "sync"

// This file implements the paper's blocking synchronization primitives
// (§4.7): a mutex is "a memory reference that points to a pair (l, q)
// where l indicates whether the mutex is locked, and q is a linked list of
// thread traces blocking on this mutex". Each primitive keeps a queue of
// parked resume functions and dispatches them to the scheduler's ready
// queue, exactly the paper's design, generalized through Suspend.
//
// A plain Go sync.Mutex guards each primitive's own state; it is held only
// for pointer manipulation, never across a blocking point, so it is safe
// to use from any worker event loop.

// Mutex is a blocking mutual-exclusion lock for monadic threads (the
// paper's sys_mutex).
type Mutex struct {
	mu      sync.Mutex
	locked  bool
	waiters []func(Unit)
}

// NewMutex returns an unlocked mutex.
func NewMutex() *Mutex { return &Mutex{} }

// Lock acquires the mutex, parking the thread behind earlier waiters if
// it is held. Wakeups are FIFO, so the lock is fair.
func (m *Mutex) Lock() M[Unit] {
	return Suspend(func(resume func(Unit)) {
		m.mu.Lock()
		if !m.locked {
			m.locked = true
			m.mu.Unlock()
			resume(Unit{})
			return
		}
		m.waiters = append(m.waiters, resume)
		m.mu.Unlock()
	})
}

// Unlock releases the mutex. If threads are waiting, ownership passes
// directly to the oldest waiter, which is dispatched to the ready queue.
func (m *Mutex) Unlock() M[Unit] {
	return Do(func() {
		m.mu.Lock()
		if !m.locked {
			m.mu.Unlock()
			panic("core: Unlock of unlocked Mutex")
		}
		if len(m.waiters) == 0 {
			m.locked = false
			m.mu.Unlock()
			return
		}
		next := m.waiters[0]
		m.waiters = m.waiters[1:]
		m.mu.Unlock()
		next(Unit{}) // lock stays held; ownership transfers
	})
}

// WithLock runs body while holding the mutex, releasing it on success or
// exception.
func (m *Mutex) WithLock(body M[Unit]) M[Unit] {
	return Then(m.Lock(), Finally(body, m.Unlock()))
}

// TryLock acquires the mutex only if it is free, reporting whether it did.
func (m *Mutex) TryLock() M[bool] {
	return NBIO(func() bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		if m.locked {
			return false
		}
		m.locked = true
		return true
	})
}

// ---------------------------------------------------------------------------
// MVar: Concurrent Haskell's one-place buffer, which §4.7 notes "can also
// be similarly implemented" as a scheduler extension.
// ---------------------------------------------------------------------------

// MVar is a synchronized one-place buffer: Take blocks while empty, Put
// blocks while full.
type MVar[A any] struct {
	mu      sync.Mutex
	full    bool
	value   A
	takers  []func(A)
	putters []mvarPut[A]
}

type mvarPut[A any] struct {
	value  A
	resume func(Unit)
}

// NewMVar returns an empty MVar.
func NewMVar[A any]() *MVar[A] { return &MVar[A]{} }

// Take removes and returns the value, blocking while the MVar is empty.
func (v *MVar[A]) Take() M[A] {
	return Suspend(func(resume func(A)) {
		v.mu.Lock()
		if !v.full {
			v.takers = append(v.takers, resume)
			v.mu.Unlock()
			return
		}
		x := v.value
		var zero A
		v.value = zero
		v.full = false
		// A blocked putter can refill immediately.
		if len(v.putters) > 0 {
			p := v.putters[0]
			v.putters = v.putters[1:]
			v.value = p.value
			v.full = true
			v.mu.Unlock()
			p.resume(Unit{})
		} else {
			v.mu.Unlock()
		}
		resume(x)
	})
}

// Put stores a value, blocking while the MVar is full.
func (v *MVar[A]) Put(x A) M[Unit] {
	return Suspend(func(resume func(Unit)) {
		v.mu.Lock()
		if len(v.takers) > 0 {
			// Hand the value straight to the oldest taker.
			taker := v.takers[0]
			v.takers = v.takers[1:]
			v.mu.Unlock()
			taker(x)
			resume(Unit{})
			return
		}
		if !v.full {
			v.value = x
			v.full = true
			v.mu.Unlock()
			resume(Unit{})
			return
		}
		v.putters = append(v.putters, mvarPut[A]{value: x, resume: resume})
		v.mu.Unlock()
	})
}

// TryTake removes the value if present, returning ok=false otherwise.
func (v *MVar[A]) TryTake() M[struct {
	Value A
	OK    bool
}] {
	type res = struct {
		Value A
		OK    bool
	}
	return NBIO(func() res {
		v.mu.Lock()
		defer v.mu.Unlock()
		if !v.full {
			return res{}
		}
		x := v.value
		var zero A
		v.value = zero
		v.full = false
		return res{Value: x, OK: true}
	})
}

// ---------------------------------------------------------------------------
// Chan: a bounded FIFO channel between monadic threads, the natural
// producer-consumer primitive on top of Mutex/MVar-style queues.
// ---------------------------------------------------------------------------

// Chan is a bounded FIFO channel. Send blocks while full; Recv blocks
// while empty. Capacity zero makes it a rendezvous channel.
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
func NewChan[A any](capacity int) *Chan[A] {
	if capacity < 0 {
		capacity = 0
	}
	return &Chan[A]{cap: capacity}
}

// Send enqueues x, blocking while the channel is full.
func (c *Chan[A]) Send(x A) M[Unit] {
	return Suspend(func(resume func(Unit)) {
		c.mu.Lock()
		if len(c.readers) > 0 {
			r := c.readers[0]
			c.readers = c.readers[1:]
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
		c.mu.Lock()
		if len(c.buf) > 0 {
			x := c.buf[0]
			c.buf = c.buf[1:]
			// Admit a blocked sender into the freed slot.
			if len(c.senders) > 0 {
				s := c.senders[0]
				c.senders = c.senders[1:]
				c.buf = append(c.buf, s.value)
				c.mu.Unlock()
				s.resume(Unit{})
			} else {
				c.mu.Unlock()
			}
			resume(x)
			return
		}
		if len(c.senders) > 0 { // rendezvous (capacity 0)
			s := c.senders[0]
			c.senders = c.senders[1:]
			c.mu.Unlock()
			s.resume(Unit{})
			resume(s.value)
			return
		}
		c.readers = append(c.readers, resume)
		c.mu.Unlock()
	})
}

// Len reports the number of buffered values.
func (c *Chan[A]) Len() M[int] {
	return NBIO(func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.buf)
	})
}

// ---------------------------------------------------------------------------
// Semaphore and WaitGroup: small conveniences in the same style.
// ---------------------------------------------------------------------------

// Semaphore is a counting semaphore for monadic threads.
type Semaphore struct {
	mu      sync.Mutex
	permits int
	waiters []func(Unit)
}

// NewSemaphore returns a semaphore with the given number of permits.
func NewSemaphore(permits int) *Semaphore { return &Semaphore{permits: permits} }

// Acquire takes one permit, blocking while none are available.
func (s *Semaphore) Acquire() M[Unit] {
	return Suspend(func(resume func(Unit)) {
		s.mu.Lock()
		if s.permits > 0 {
			s.permits--
			s.mu.Unlock()
			resume(Unit{})
			return
		}
		s.waiters = append(s.waiters, resume)
		s.mu.Unlock()
	})
}

// Release returns one permit, waking the oldest waiter if any.
func (s *Semaphore) Release() M[Unit] {
	return Do(func() {
		s.mu.Lock()
		if len(s.waiters) > 0 {
			next := s.waiters[0]
			s.waiters = s.waiters[1:]
			s.mu.Unlock()
			next(Unit{})
			return
		}
		s.permits++
		s.mu.Unlock()
	})
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
