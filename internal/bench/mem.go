package bench

import (
	"runtime"
	"sync"
	"time"

	"hybrid/internal/core"
)

// MemPoint is one measurement of the thread memory test (§5.1): the live
// heap cost of N parked monadic threads.
type MemPoint struct {
	Threads        int
	BytesPerThread float64
	TotalBytes     uint64
}

// MemTest reproduces the paper's memory-consumption experiment: launch N
// monadic threads whose whole state is a trace and an empty handler
// stack, and measure live heap per thread after garbage collection. The
// paper's threads "just loop calling sys_yield" and were measured after
// major GC at 48 bytes each; here the threads yield a few times and then
// park in a Suspend that never resumes, which pins exactly the same
// per-thread state (TCB + continuation closure) while letting the heap
// quiesce for a stable measurement.
func MemTest(threads int) MemPoint {
	rt := core.NewRuntime(core.Options{Workers: 1, BatchSteps: 1024})
	defer rt.Shutdown()

	before := heapAlloc()

	// Each parked thread's resume hook is retained, as a real event
	// source (epoll registration, mutex queue) would retain it: the live
	// set measured below is TCB + suspended continuation, the same state
	// the paper counts at 48 bytes per Haskell thread.
	holders := make([]func(core.Unit), 0, threads)
	var mu sync.Mutex
	park := core.Suspend(func(resume func(core.Unit)) {
		mu.Lock()
		holders = append(holders, resume)
		mu.Unlock()
	})
	thread := core.Seq(core.Yield(), core.Yield(), park)
	for i := 0; i < threads; i++ {
		rt.Spawn(thread)
	}
	// A sentinel spawned last: the shared ready queue is FIFO and Yield
	// requeues at the back, so when the sentinel finishes its third
	// dispatch every earlier thread has finished its third (the park).
	done := make(chan struct{})
	rt.Spawn(core.Seq(core.Yield(), core.Yield(), core.Do(func() { close(done) })))
	<-done
	// Let the last dispatches drain, then force a major GC and measure.
	time.Sleep(50 * time.Millisecond)
	live := heapAlloc() - before
	runtime.KeepAlive(holders)
	return MemPoint{
		Threads:        threads,
		BytesPerThread: float64(live) / float64(threads),
		TotalBytes:     live,
	}
}
