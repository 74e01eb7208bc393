package core

// Regression tests for the enqueue/shutdown lifecycle: a TCB rejected or
// discarded by a closed queue must release its virtual-clock hold and
// decrement the live count, or WaitIdle and vclock quiescence wedge
// forever. Plus coverage for the scheduler stats.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybrid/internal/vclock"
)

// A Spawn that loses the race with Shutdown must not leak the clock hold
// taken in enqueue. On the pre-fix runtime the push was silently dropped:
// live stayed at 1, the vclock busy count stayed at 1, and WaitIdle hung.
func TestSpawnRacingShutdownReleasesClockHold(t *testing.T) {
	clk := vclock.NewVirtual()
	rt := NewRuntime(Options{Workers: 1, Clock: clk})
	rt.Shutdown()

	rt.Spawn(Do(func() {}))

	if got := rt.Live(); got != 0 {
		t.Fatalf("Live = %d after a rejected Spawn, want 0", got)
	}
	if busy := clk.Busy(); busy != 0 {
		t.Fatalf("vclock busy = %d after a rejected Spawn, want 0 (leaked hold)", busy)
	}
	done := make(chan struct{})
	go func() {
		rt.WaitIdle()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("WaitIdle wedged by a Spawn racing Shutdown")
	}
}

// Shutdown discards threads still queued; each discarded thread must give
// back its clock hold and its live count, exactly as if it had completed.
func TestShutdownDiscardsQueuedThreadsCleanly(t *testing.T) {
	clk := vclock.NewVirtual()
	rt := NewRuntime(Options{Workers: 1, Clock: clk})

	gate := make(chan struct{})
	started := make(chan struct{})
	rt.Spawn(Do(func() { close(started); <-gate }))
	<-started

	// The single worker is occupied; these ten pile up in the ready queue.
	for i := 0; i < 10; i++ {
		rt.Spawn(Do(func() {}))
	}
	waitFor(t, func() bool { return rt.QueueDepth() == 10 })

	shutdownDone := make(chan struct{})
	go func() {
		rt.Shutdown()
		close(shutdownDone)
	}()
	// Shutdown drains the ten queued threads immediately; only the thread
	// held hostage in the worker remains live.
	waitFor(t, func() bool { return rt.Live() == 1 })
	close(gate)
	<-shutdownDone

	if got := rt.Live(); got != 0 {
		t.Fatalf("Live = %d after Shutdown, want 0", got)
	}
	if busy := clk.Busy(); busy != 0 {
		t.Fatalf("vclock busy = %d after Shutdown, want 0", busy)
	}
	if got := rt.Stats().Snapshot().Counter("enqueue_rejected"); got != 10 {
		t.Fatalf("enqueue_rejected = %d, want 10 discarded threads", got)
	}
}

// Concurrent Spawn and Shutdown must neither race (run with -race) nor
// miscount: every accepted thread runs or is discarded with its live
// count released.
func TestConcurrentSpawnAndShutdown(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		rt := NewRuntime(Options{Workers: 4})
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					rt.Spawn(Then(Yield(), Do(func() {})))
				}
			}()
		}
		time.Sleep(time.Millisecond)
		rt.Shutdown()
		close(stop)
		wg.Wait()
		// Spawns that raced the close were rejected-and-accounted; the
		// rest ran or were drained. Nothing may remain live.
		if got := rt.Live(); got != 0 {
			t.Fatalf("iter %d: Live = %d after Shutdown and spawner drain, want 0", iter, got)
		}
	}
}

// Regression (PR 3): a panic that escapes trace construction — here, a
// Catch handler that panics — used to kill the worker goroutine and the
// process with it; the thread's resources (descriptors tracked by Ensure)
// were unreleasable. Now the panic kills only the thread: its Ensure
// cleanups run, the panic is reported uncaught, and the vclock hold and
// live count balance exactly as for a completed thread.
func TestHandlerPanicKillsOnlyThreadAndRunsCleanups(t *testing.T) {
	clk := vclock.NewVirtual()
	rt := NewRuntime(Options{Workers: 1, Clock: clk, TrapPanics: true})
	defer rt.Shutdown()

	// A stand-in FD table: the cleanup releases the thread's descriptor.
	var fds atomic.Int64
	fds.Add(1)
	rt.Spawn(Ensure(func() { fds.Add(-1) },
		Catch(
			Do(func() { panic("inner effect panic") }),
			func(error) M[Unit] { panic("handler panic") }, // escapes interpret
		),
	))
	rt.WaitIdle()

	if got := fds.Load(); got != 0 {
		t.Fatalf("fd leaked by panicking thread: %d still open", got)
	}
	if got := rt.Live(); got != 0 {
		t.Fatalf("Live = %d after panic-killed thread, want 0", got)
	}
	if busy := clk.Busy(); busy != 0 {
		t.Fatalf("vclock busy = %d after panic-killed thread, want 0 (leaked hold)", busy)
	}
	errs := rt.UncaughtErrors()
	if len(errs) != 1 {
		t.Fatalf("UncaughtErrors = %v, want the handler panic", errs)
	}
	var pe *PanicError
	if !asPanicError(errs[0], &pe) {
		t.Fatalf("uncaught error %v is not a *PanicError", errs[0])
	}
	snap := rt.Stats().Snapshot()
	if snap.Counter("panic_kills") != 1 || snap.Counter("abort_cleanups") != 1 {
		t.Fatalf("panic_kills=%d abort_cleanups=%d, want 1/1",
			snap.Counter("panic_kills"), snap.Counter("abort_cleanups"))
	}
	// The worker survived: the runtime still executes threads.
	var alive atomic.Bool
	rt.Run(Do(func() { alive.Store(true) }))
	if !alive.Load() {
		t.Fatal("worker loop died with the panicking thread")
	}
}

func asPanicError(err error, target **PanicError) bool {
	pe, ok := err.(*PanicError)
	if ok {
		*target = pe
	}
	return ok
}

// Regression (PR 3): an uncaught exception releases the thread's Ensure
// cleanups on the abort path — previously only a monadic Finally could
// release resources, and only when the trace kept running.
func TestEnsureRunsOnUncaughtException(t *testing.T) {
	clk := vclock.NewVirtual()
	rt := NewRuntime(Options{Workers: 1, Clock: clk})
	defer rt.Shutdown()

	var released atomic.Bool
	rt.Spawn(Ensure(func() { released.Store(true) },
		Throw[Unit](errKaboom)))
	rt.WaitIdle()

	if !released.Load() {
		t.Fatal("Ensure cleanup did not run for an uncaught exception")
	}
	if busy := clk.Busy(); busy != 0 {
		t.Fatalf("vclock busy = %d, want 0", busy)
	}
}

var errKaboom = &PanicError{Value: "kaboom"}

// Regression (PR 3): a thread whose blocking effect is still in flight
// at Shutdown runs its registered cleanups — a dead thread's descriptors
// and admission slots are given back even though its trace never resumes.
// On a real clock the effect has a goroutine of its own: Shutdown waits
// for it, and the resume it then makes hits the closed queue.
func TestShutdownDiscardRunsCleanups(t *testing.T) {
	rt := NewRuntime(Options{Workers: 1})

	gate := make(chan struct{})
	started := make(chan struct{})
	var released atomic.Bool
	rt.Spawn(Ensure(func() { released.Store(true) },
		Then(Blio(func() int { close(started); <-gate; return 0 }), Skip)))
	<-started

	shutdownDone := make(chan struct{})
	go func() {
		rt.Shutdown()
		close(shutdownDone)
	}()
	select {
	case <-shutdownDone:
		t.Fatal("Shutdown returned while a blio effect was still blocked")
	case <-time.After(20 * time.Millisecond):
	}
	if released.Load() {
		t.Fatal("cleanup ran before the blocked effect returned")
	}
	close(gate)
	<-shutdownDone

	if !released.Load() {
		t.Fatal("Ensure cleanup did not run for the discarded thread")
	}
	if got := rt.Live(); got != 0 {
		t.Fatalf("Live = %d after Shutdown, want 0", got)
	}
	if got := rt.Stats().Snapshot().Counter("enqueue_rejected"); got != 1 {
		t.Fatalf("enqueue_rejected = %d, want the one discarded resume", got)
	}
}

// Ensure composes with ordinary control flow: success and caught
// exceptions each run the cleanup exactly once, in LIFO order when
// nested.
func TestEnsureBalancedPaths(t *testing.T) {
	rt := NewRuntime(Options{Workers: 1})
	defer rt.Shutdown()

	var order []string
	var mu sync.Mutex
	log := func(s string) func() {
		return func() { mu.Lock(); order = append(order, s); mu.Unlock() }
	}
	rt.Run(Seq(
		// Success path.
		Then(Ensure(log("a"), Ensure(log("b"), Return(1))), Skip),
		// Exception path: cleanup runs before the handler.
		Catch(
			Then(Ensure(log("c"), Throw[int](errKaboom)), Skip),
			func(error) M[Unit] { return Do(log("handler")) },
		),
	))
	mu.Lock()
	defer mu.Unlock()
	want := []string{"b", "a", "c", "handler"}
	if len(order) != len(want) {
		t.Fatalf("cleanup order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("cleanup order %v, want %v", order, want)
		}
	}
	snap := rt.Stats().Snapshot()
	if snap.Counter("abort_cleanups") != 0 {
		t.Fatalf("balanced Ensure paths hit the abort path: abort_cleanups=%d",
			snap.Counter("abort_cleanups"))
	}
}

// With one of two workers held hostage, the free worker drains the shared
// queue alone — no thread is stranded behind the busy one — and the
// per-worker dispatch counters add up to the total.
func TestPerWorkerDispatchCounters(t *testing.T) {
	rt := NewRuntime(Options{Workers: 2})
	defer rt.Shutdown()

	gate := make(chan struct{})
	started := make(chan struct{})
	rt.Spawn(Do(func() { close(started); <-gate }))
	<-started
	for i := 0; i < 20; i++ {
		rt.Spawn(Do(func() {}))
	}
	waitFor(t, func() bool { return rt.Live() == 1 })

	snap := rt.Stats().Snapshot()
	if d := snap.Counter("dispatches"); d < 21 {
		t.Fatalf("dispatches = %d, want >= 21", d)
	}
	perWorker := snap.Counter("worker00.dispatches") + snap.Counter("worker01.dispatches")
	if perWorker != snap.Counter("dispatches") {
		t.Fatalf("per-worker dispatches sum %d != total %d", perWorker, snap.Counter("dispatches"))
	}
	close(gate)
	rt.WaitIdle()
}

// The scheduler's park/resume and batch instrumentation must see traffic.
func TestSchedulerStatsObserveParksAndBatches(t *testing.T) {
	rt := NewRuntime(Options{Workers: 1, BatchSteps: 4})
	defer rt.Shutdown()

	mv := NewMVar[int]()
	rt.Spawn(Bind(mv.Take(), func(int) M[Unit] { return Skip })) // parks
	rt.Spawn(Seq(
		ForN(64, func(int) M[Unit] { return Do(func() {}) }), // exhausts 4-step batches
		mv.Put(1), // resumes the parked thread
	))
	rt.WaitIdle()

	snap := rt.Stats().Snapshot()
	for _, name := range []string{"parks", "resumes", "batch_full", "completed"} {
		if snap.Counter(name) == 0 {
			t.Fatalf("%s = 0, want non-zero (snapshot %+v)", name, snap)
		}
	}
	if m := snap["batch_used"]; m.Count == 0 || m.Sum == 0 {
		t.Fatalf("batch_used histogram empty: %+v", m)
	}
}
