package core

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

func TestMutexMutualExclusion(t *testing.T) {
	// N threads increment a shared counter under a mutex with yields
	// inside the critical section; mutual exclusion means no lost updates
	// and no overlap.
	rt := NewRuntime(Options{Workers: 4, BatchSteps: 1})
	defer rt.Shutdown()
	m := NewMutex()
	var inside atomic.Int32
	var maxInside atomic.Int32
	counter := 0
	const n = 200
	rt.Run(ForN(n, func(int) M[Unit] {
		return Fork(m.WithLock(Seq(
			Do(func() {
				v := inside.Add(1)
				for {
					old := maxInside.Load()
					if v <= old || maxInside.CompareAndSwap(old, v) {
						break
					}
				}
			}),
			Yield(),
			Do(func() { counter++ }),
			Yield(),
			Do(func() { inside.Add(-1) }),
		)))
	}))
	if counter != n {
		t.Fatalf("counter = %d, want %d (lost updates)", counter, n)
	}
	if maxInside.Load() != 1 {
		t.Fatalf("max threads inside critical section = %d", maxInside.Load())
	}
}

func TestMutexFIFOFairness(t *testing.T) {
	rt := NewRuntime(Options{Workers: 1, BatchSteps: 1})
	defer rt.Shutdown()
	m := NewMutex()
	var l logger
	hold := NewMVar[Unit]()
	// Thread 0 takes the lock and holds it until released; threads 1..4
	// queue up in order; when thread 0 unlocks they must enter FIFO.
	rt.Spawn(Seq(m.Lock(), Bind(hold.Take(), func(Unit) M[Unit] { return Skip }), m.Unlock()))
	waitFor(t, func() bool { return rt.Live() == 1 })
	for i := 1; i <= 4; i++ {
		i := i
		rt.Spawn(Seq(m.Lock(), l.add(i), m.Unlock()))
		// Ensure deterministic queue order: wait until this thread parks.
		waitFor(t, func() bool { return rt.Live() == int64(1+i) })
	}
	rt.Spawn(hold.Put(Unit{}))
	rt.WaitIdle()
	if !equalInts(l.values(), []int{1, 2, 3, 4}) {
		t.Fatalf("lock acquisition order = %v, want FIFO", l.values())
	}
}

func TestMutexTryLock(t *testing.T) {
	rt := NewRuntime(Options{Workers: 1})
	defer rt.Shutdown()
	m := NewMutex()
	var first, second atomic.Bool
	rt.Run(Seq(
		Bind(m.TryLock(), func(ok bool) M[Unit] { return Do(func() { first.Store(ok) }) }),
		Bind(m.TryLock(), func(ok bool) M[Unit] { return Do(func() { second.Store(ok) }) }),
		m.Unlock(),
	))
	if !first.Load() || second.Load() {
		t.Fatalf("TryLock results = %v, %v; want true, false", first.Load(), second.Load())
	}
}

func TestMutexWithLockReleasesOnThrow(t *testing.T) {
	rt := NewRuntime(Options{Workers: 1})
	defer rt.Shutdown()
	m := NewMutex()
	var reacquired atomic.Bool
	rt.Run(Seq(
		Catch(m.WithLock(Throw[Unit](errBoom)), func(error) M[Unit] { return Skip }),
		m.WithLock(Do(func() { reacquired.Store(true) })),
	))
	if !reacquired.Load() {
		t.Fatal("mutex not released after exception in critical section")
	}
}

func TestMutexUnlockUnlockedPanics(t *testing.T) {
	rt := NewRuntime(Options{Workers: 1, TrapPanics: true})
	defer rt.Shutdown()
	m := NewMutex()
	var err atomic.Value
	rt.Run(Catch(m.Unlock(), func(e error) M[Unit] {
		err.Store(e)
		return Skip
	}))
	if _, ok := err.Load().(*PanicError); !ok {
		t.Fatalf("got %T, want *PanicError", err.Load())
	}
}

// ---------------------------------------------------------------------------
// MVar
// ---------------------------------------------------------------------------

func TestMVarTakePutRoundTrip(t *testing.T) {
	got, _ := observe(t, func(*logger) M[int] {
		v := NewMVar[int]()
		return Then(v.Put(41), Bind(v.Take(), func(x int) M[int] { return Return(x + 1) }))
	})
	if got != 42 {
		t.Fatalf("got %d", got)
	}
}

func TestMVarTakeBlocksUntilPut(t *testing.T) {
	rt := NewRuntime(Options{Workers: 1})
	defer rt.Shutdown()
	v := NewMVar[int]()
	var l logger
	rt.Spawn(Bind(v.Take(), func(x int) M[Unit] { return l.add(x) }))
	waitFor(t, func() bool { return rt.Live() == 1 }) // taker parked
	if len(l.values()) != 0 {
		t.Fatal("Take returned before Put")
	}
	rt.Spawn(v.Put(5))
	rt.WaitIdle()
	if !equalInts(l.values(), []int{5}) {
		t.Fatalf("log = %v", l.values())
	}
}

func TestMVarPutBlocksWhileFull(t *testing.T) {
	rt := NewRuntime(Options{Workers: 1})
	defer rt.Shutdown()
	v := NewMVar[int]()
	rt.Run(v.Put(1))
	var l logger
	rt.Spawn(Seq(v.Put(2), l.add(100)))
	waitFor(t, func() bool { return rt.Live() == 1 }) // putter parked
	if len(l.values()) != 0 {
		t.Fatal("Put completed on a full MVar")
	}
	rt.Spawn(Bind(v.Take(), l.add))
	rt.WaitIdle()
	// Taker gets 1; blocked putter refills with 2.
	log := l.values()
	if len(log) != 2 {
		t.Fatalf("log = %v", log)
	}
	rt2 := NewRuntime(Options{Workers: 1})
	defer rt2.Shutdown()
	var got atomic.Int64
	rt2.Run(Bind(v.Take(), func(x int) M[Unit] { return Do(func() { got.Store(int64(x)) }) }))
	if got.Load() != 2 {
		t.Fatalf("MVar holds %d after blocked put, want 2", got.Load())
	}
}

func TestMVarTryTake(t *testing.T) {
	rt := NewRuntime(Options{Workers: 1})
	defer rt.Shutdown()
	v := NewMVar[int]()
	rt.Run(v.Put(9))
	var a, b struct {
		Value int
		OK    bool
	}
	rt.Run(Seq(
		Bind(v.TryTake(), func(r struct {
			Value int
			OK    bool
		}) M[Unit] {
			return Do(func() { a = r })
		}),
		Bind(v.TryTake(), func(r struct {
			Value int
			OK    bool
		}) M[Unit] {
			return Do(func() { b = r })
		}),
	))
	if !a.OK || a.Value != 9 {
		t.Fatalf("first TryTake = %+v", a)
	}
	if b.OK {
		t.Fatalf("second TryTake = %+v, want empty", b)
	}
}

func TestMVarProducerConsumer(t *testing.T) {
	// The paper's producer-consumer model: values arrive in order,
	// exactly once.
	rt := NewRuntime(Options{Workers: 2})
	defer rt.Shutdown()
	v := NewMVar[int]()
	var l logger
	const n = 100
	rt.Run(Seq(
		Fork(ForN(n, func(i int) M[Unit] { return v.Put(i) })),
		ForN(n, func(int) M[Unit] { return Bind(v.Take(), l.add) }),
	))
	want := make([]int, n)
	for i := range want {
		want[i] = i
	}
	if !equalInts(l.values(), want) {
		t.Fatalf("received %v", l.values())
	}
}

// ---------------------------------------------------------------------------
// Chan
// ---------------------------------------------------------------------------

func TestChanFIFO(t *testing.T) {
	rt := NewRuntime(Options{Workers: 1})
	defer rt.Shutdown()
	ch := NewChan[int](4)
	var l logger
	rt.Run(Seq(
		Fork(ForN(10, func(i int) M[Unit] { return ch.Send(i) })),
		ForN(10, func(int) M[Unit] { return Bind(ch.Recv(), l.add) }),
	))
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if !equalInts(l.values(), want) {
		t.Fatalf("recv order = %v", l.values())
	}
}

func TestChanBoundedSendBlocks(t *testing.T) {
	rt := NewRuntime(Options{Workers: 1})
	defer rt.Shutdown()
	ch := NewChan[int](2)
	var sent atomic.Int32
	rt.Spawn(ForN(5, func(i int) M[Unit] {
		return Then(ch.Send(i), Do(func() { sent.Add(1) }))
	}))
	waitFor(t, func() bool { return rt.Live() == 1 && sent.Load() == 2 })
	if sent.Load() != 2 {
		t.Fatalf("sent %d into capacity-2 channel", sent.Load())
	}
	var got atomic.Int32
	rt.Spawn(ForN(5, func(int) M[Unit] {
		return Bind(ch.Recv(), func(int) M[Unit] { return Do(func() { got.Add(1) }) })
	}))
	rt.WaitIdle()
	if got.Load() != 5 || sent.Load() != 5 {
		t.Fatalf("got %d sent %d, want 5 and 5", got.Load(), sent.Load())
	}
}

func TestChanRendezvous(t *testing.T) {
	rt := NewRuntime(Options{Workers: 1})
	defer rt.Shutdown()
	ch := NewChan[int](0)
	var l logger
	rt.Run(Seq(
		Fork(Seq(ch.Send(1), l.add(10))),
		Bind(ch.Recv(), l.add),
	))
	log := l.values()
	if len(log) != 2 {
		t.Fatalf("log = %v", log)
	}
}

func TestChanLen(t *testing.T) {
	rt := NewRuntime(Options{Workers: 1})
	defer rt.Shutdown()
	ch := NewChan[int](8)
	var n atomic.Int64
	rt.Run(Seq(
		ch.Send(1), ch.Send(2), ch.Send(3),
		Bind(ch.Len(), func(l int) M[Unit] { return Do(func() { n.Store(int64(l)) }) }),
	))
	if n.Load() != 3 {
		t.Fatalf("Len = %d, want 3", n.Load())
	}
}

// Property: for any interleaving of producers and consumers, every sent
// value is received exactly once (conservation).
func TestChanConservationProperty(t *testing.T) {
	check := func(producers, itemsPer uint8, capacity uint8) bool {
		p := int(producers%4) + 1
		n := int(itemsPer%16) + 1
		ch := NewChan[int](int(capacity % 8))
		rt := NewRuntime(Options{Workers: 2, BatchSteps: 3})
		defer rt.Shutdown()
		var l logger
		rt.Run(Seq(
			ForN(p, func(pi int) M[Unit] {
				return Fork(ForN(n, func(i int) M[Unit] { return ch.Send(pi*1000 + i) }))
			}),
			ForN(p*n, func(int) M[Unit] { return Bind(ch.Recv(), l.add) }),
		))
		got := l.values()
		if len(got) != p*n {
			return false
		}
		seen := make(map[int]bool, len(got))
		for _, v := range got {
			if seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------------
// Semaphore and WaitGroup
// ---------------------------------------------------------------------------

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	rt := NewRuntime(Options{Workers: 4, BatchSteps: 1})
	defer rt.Shutdown()
	sem := NewSemaphore(3)
	var inside, maxInside atomic.Int32
	rt.Run(ForN(50, func(int) M[Unit] {
		return Fork(Seq(
			sem.Acquire(),
			Do(func() {
				v := inside.Add(1)
				for {
					old := maxInside.Load()
					if v <= old || maxInside.CompareAndSwap(old, v) {
						break
					}
				}
			}),
			Yield(),
			Do(func() { inside.Add(-1) }),
			sem.Release(),
		))
	}))
	if m := maxInside.Load(); m > 3 || m < 1 {
		t.Fatalf("max concurrent holders = %d, want 1..3", m)
	}
}

func TestWaitGroupReleasesAfterAllDone(t *testing.T) {
	rt := NewRuntime(Options{Workers: 2})
	defer rt.Shutdown()
	wg := NewWaitGroup(5)
	var l logger
	rt.Run(Seq(
		ForN(5, func(i int) M[Unit] {
			return Fork(Seq(Yield(), l.add(i), wg.Done()))
		}),
		wg.Wait(),
		l.add(100),
	))
	log := l.values()
	if len(log) != 6 || log[5] != 100 {
		t.Fatalf("log = %v; Wait must come last", log)
	}
}

func TestWaitGroupAlreadyZero(t *testing.T) {
	rt := NewRuntime(Options{Workers: 1})
	defer rt.Shutdown()
	wg := NewWaitGroup(0)
	var done atomic.Bool
	rt.Run(Seq(wg.Wait(), Do(func() { done.Store(true) })))
	if !done.Load() {
		t.Fatal("Wait on zero count blocked")
	}
}

func TestWaitGroupMultipleWaiters(t *testing.T) {
	rt := NewRuntime(Options{Workers: 1})
	defer rt.Shutdown()
	wg := NewWaitGroup(1)
	var count atomic.Int32
	rt.Run(Seq(
		ForN(4, func(int) M[Unit] {
			return Fork(Seq(wg.Wait(), Do(func() { count.Add(1) })))
		}),
		wg.Done(),
	))
	if count.Load() != 4 {
		t.Fatalf("released %d waiters, want 4", count.Load())
	}
}
