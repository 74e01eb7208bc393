package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybrid/internal/vclock"
)

func TestForkRunsChild(t *testing.T) {
	var ran atomic.Bool
	run(t, Fork(Do(func() { ran.Store(true) })))
	if !ran.Load() {
		t.Fatal("forked child did not run")
	}
}

func TestForkManyChildren(t *testing.T) {
	const n = 1000
	var count atomic.Int64
	rt := run(t, ForN(n, func(int) M[Unit] {
		return Fork(Do(func() { count.Add(1) }))
	}))
	if count.Load() != n {
		t.Fatalf("ran %d children, want %d", count.Load(), n)
	}
	if got := rt.Spawned(); got != n+1 {
		t.Fatalf("Spawned() = %d, want %d", got, n+1)
	}
}

func TestYieldInterleavesThreads(t *testing.T) {
	// Two threads alternating yields on a single worker must interleave.
	var l logger
	body := func(base int) M[Unit] {
		return ForN(3, func(i int) M[Unit] {
			return Then(l.add(base+i), Yield())
		})
	}
	rt := NewRuntime(Options{Workers: 1, BatchSteps: 1})
	defer rt.Shutdown()
	rt.Spawn(Seq(Fork(body(10)), Fork(body(20))))
	rt.WaitIdle()
	log := l.values()
	if len(log) != 6 {
		t.Fatalf("log = %v", log)
	}
	// With BatchSteps=1 and round-robin scheduling, the two threads must
	// strictly alternate: 10,20,11,21,12,22.
	want := []int{10, 20, 11, 21, 12, 22}
	if !equalInts(log, want) {
		t.Fatalf("interleaving = %v, want %v", log, want)
	}
}

func TestBatchStepsLimitsRun(t *testing.T) {
	// With a large batch, a thread that never blocks hogs the worker and
	// the effect log is NOT interleaved.
	var l logger
	body := func(base int) M[Unit] {
		return ForN(3, func(i int) M[Unit] { return l.add(base + i) })
	}
	rt := NewRuntime(Options{Workers: 1, BatchSteps: 1 << 20})
	defer rt.Shutdown()
	rt.Spawn(Seq(Fork(body(10)), Fork(body(20))))
	rt.WaitIdle()
	want := []int{10, 11, 12, 20, 21, 22}
	if !equalInts(l.values(), want) {
		t.Fatalf("log = %v, want %v (no interleaving within batch)", l.values(), want)
	}
}

func TestHaltStopsThreadOnly(t *testing.T) {
	var after, sibling atomic.Bool
	run(t, Seq(
		Fork(Seq(Halt[Unit](), Do(func() { after.Store(true) }))),
		Fork(Do(func() { sibling.Store(true) })),
	))
	if after.Load() {
		t.Fatal("code after Halt ran")
	}
	if !sibling.Load() {
		t.Fatal("sibling thread was affected by Halt")
	}
}

func TestLiveCount(t *testing.T) {
	rt := NewRuntime(Options{Workers: 1})
	defer rt.Shutdown()
	release := NewMVar[Unit]()
	const n = 10
	for i := 0; i < n; i++ {
		rt.Spawn(Bind(release.Take(), func(Unit) M[Unit] { return Skip }))
	}
	waitFor(t, func() bool { return rt.Live() == n })
	for i := 0; i < n; i++ {
		rt.Spawn(release.Put(Unit{}))
	}
	rt.WaitIdle()
	if rt.Live() != 0 {
		t.Fatalf("Live() = %d after drain", rt.Live())
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// ---------------------------------------------------------------------------
// Exceptions (§4.3)
// ---------------------------------------------------------------------------

var errBoom = errors.New("boom")

func TestCatchHandlesThrow(t *testing.T) {
	got, _ := observe(t, func(*logger) M[int] {
		return Catch(Throw[int](errBoom), func(err error) M[int] {
			if err != errBoom {
				return Return(-1)
			}
			return Return(7)
		})
	})
	if got != 7 {
		t.Fatalf("handler result = %d, want 7", got)
	}
}

func TestCatchPassesBodyResult(t *testing.T) {
	got, _ := observe(t, func(*logger) M[int] {
		return Catch(Return(5), func(error) M[int] { return Return(-1) })
	})
	if got != 5 {
		t.Fatalf("got %d, want 5 (handler must not run)", got)
	}
}

func TestThrowSkipsRestOfBody(t *testing.T) {
	_, log := observe(t, func(l *logger) M[int] {
		return Catch(
			Then(Seq(l.add(1), Then(Throw[Unit](errBoom), l.add(2))), Return(0)),
			func(error) M[int] { return Then(l.add(3), Return(0)) },
		)
	})
	if !equalInts(log, []int{1, 3}) {
		t.Fatalf("log = %v, want [1 3]", log)
	}
}

func TestNestedCatchInnerFirst(t *testing.T) {
	_, log := observe(t, func(l *logger) M[Unit] {
		return Catch(
			Catch(Throw[Unit](errBoom), func(error) M[Unit] { return l.add(1) }),
			func(error) M[Unit] { return l.add(2) },
		)
	})
	if !equalInts(log, []int{1}) {
		t.Fatalf("log = %v, want [1] (inner handler only)", log)
	}
}

func TestRethrowReachesOuterHandler(t *testing.T) {
	// The paper's send_file pattern: inner handler cleans up and rethrows.
	_, log := observe(t, func(l *logger) M[Unit] {
		return Catch(
			Catch(Throw[Unit](errBoom), func(err error) M[Unit] {
				return Then(l.add(1), Throw[Unit](err))
			}),
			func(error) M[Unit] { return l.add(2) },
		)
	})
	if !equalInts(log, []int{1, 2}) {
		t.Fatalf("log = %v, want [1 2]", log)
	}
}

func TestExceptionAfterCatchBlockNotCaught(t *testing.T) {
	// A throw in the continuation *after* a Catch must not hit that
	// Catch's handler: the frame is popped when the body completes.
	var handled atomic.Int32
	rt := NewRuntime(Options{Workers: 1})
	defer rt.Shutdown()
	rt.Run(Then(
		Catch(Skip, func(error) M[Unit] {
			handled.Add(1)
			return Skip
		}),
		Throw[Unit](errBoom),
	))
	if handled.Load() != 0 {
		t.Fatal("popped handler caught a later exception")
	}
	errs := rt.UncaughtErrors()
	if len(errs) != 1 || errs[0] != errBoom {
		t.Fatalf("uncaught = %v, want [boom]", errs)
	}
}

func TestUncaughtExceptionKillsOnlyThread(t *testing.T) {
	var other atomic.Bool
	var uncaughtID atomic.Uint64
	rt := NewRuntime(Options{
		Workers:  1,
		Uncaught: func(id uint64, err error) { uncaughtID.Store(id) },
	})
	defer rt.Shutdown()
	rt.Run(Seq(
		Fork(Throw[Unit](errBoom)),
		Fork(Do(func() { other.Store(true) })),
	))
	if !other.Load() {
		t.Fatal("unrelated thread did not run")
	}
	if uncaughtID.Load() == 0 {
		t.Fatal("Uncaught hook not invoked")
	}
}

func TestFinallyRunsOnSuccess(t *testing.T) {
	got, log := observe(t, func(l *logger) M[int] {
		return Finally(Then(l.add(1), Return(3)), l.add(2))
	})
	if got != 3 || !equalInts(log, []int{1, 2}) {
		t.Fatalf("got %d log %v", got, log)
	}
}

func TestFinallyRunsOnThrowAndRethrows(t *testing.T) {
	_, log := observe(t, func(l *logger) M[Unit] {
		return Catch(
			Finally(Throw[Unit](errBoom), l.add(1)),
			func(error) M[Unit] { return l.add(2) },
		)
	})
	if !equalInts(log, []int{1, 2}) {
		t.Fatalf("log = %v, want [1 2]", log)
	}
}

func TestCatchAcrossYieldAndFork(t *testing.T) {
	// Handler frames are per-thread state and must survive scheduling.
	got, _ := observe(t, func(*logger) M[int] {
		return Catch(
			Then(Seq(Yield(), Yield(), Then(Throw[Unit](errBoom), Skip)), Return(0)),
			func(error) M[int] { return Return(99) },
		)
	})
	if got != 99 {
		t.Fatalf("got %d, want 99", got)
	}
}

func TestForkedChildDoesNotInheritHandlers(t *testing.T) {
	rt := NewRuntime(Options{Workers: 1})
	defer rt.Shutdown()
	var parentHandled atomic.Bool
	rt.Run(Bind(
		Catch(Fork(Throw[Unit](errBoom)), func(error) M[Unit] {
			parentHandled.Store(true)
			return Skip
		}),
		func(Unit) M[Unit] { return Skip },
	))
	if parentHandled.Load() {
		t.Fatal("child exception hit parent's handler")
	}
	if len(rt.UncaughtErrors()) != 1 {
		t.Fatalf("uncaught = %v", rt.UncaughtErrors())
	}
}

func TestNBIOeThrows(t *testing.T) {
	got, _ := observe(t, func(*logger) M[int] {
		return Catch(
			NBIOe(func() (int, error) { return 0, errBoom }),
			func(error) M[int] { return Return(55) },
		)
	})
	if got != 55 {
		t.Fatalf("got %d, want 55", got)
	}
}

func TestTrapPanics(t *testing.T) {
	rt := NewRuntime(Options{Workers: 1, TrapPanics: true})
	defer rt.Shutdown()
	var caught atomic.Value
	rt.Run(Catch(
		Do(func() { panic("kaboom") }),
		func(err error) M[Unit] {
			caught.Store(err)
			return Skip
		},
	))
	pe, ok := caught.Load().(*PanicError)
	if !ok {
		t.Fatalf("caught %T, want *PanicError", caught.Load())
	}
	if pe.Value != "kaboom" {
		t.Fatalf("panic value = %v", pe.Value)
	}
	if pe.Error() == "" {
		t.Fatal("empty error string")
	}
}

func TestCatchDepthProperty(t *testing.T) {
	// For any nesting depth, a throw lands in the innermost handler and
	// rethrowing d times escalates through all d frames in order.
	for depth := 1; depth <= 8; depth++ {
		var l logger
		prog := Throw[Unit](errBoom)
		for i := depth; i >= 1; i-- {
			i := i
			inner := prog
			prog = Catch(inner, func(err error) M[Unit] {
				return Then(l.add(i), Throw[Unit](err))
			})
		}
		rt := NewRuntime(Options{Workers: 1})
		rt.Run(Catch(prog, func(error) M[Unit] { return l.add(0) }))
		rt.Shutdown()
		want := make([]int, 0, depth+1)
		for i := depth; i >= 1; i-- {
			want = append(want, i)
		}
		want = append(want, 0)
		if !equalInts(l.values(), want) {
			t.Fatalf("depth %d: log = %v, want %v", depth, l.values(), want)
		}
	}
}

// ---------------------------------------------------------------------------
// Suspend, Blio, Sleep
// ---------------------------------------------------------------------------

func TestSuspendResumeFromOutside(t *testing.T) {
	rt := NewRuntime(Options{Workers: 1})
	defer rt.Shutdown()
	var resume atomic.Value
	var got atomic.Int64
	rt.Spawn(Bind(
		Suspend(func(r func(int)) { resume.Store(r) }),
		func(x int) M[Unit] { return Do(func() { got.Store(int64(x)) }) },
	))
	waitFor(t, func() bool { return resume.Load() != nil })
	resume.Load().(func(int))(123)
	rt.WaitIdle()
	if got.Load() != 123 {
		t.Fatalf("resumed value = %d, want 123", got.Load())
	}
}

func TestSuspendSynchronousResume(t *testing.T) {
	got, _ := observe(t, func(*logger) M[int] {
		return Suspend(func(resume func(int)) { resume(9) })
	})
	if got != 9 {
		t.Fatalf("got %d, want 9", got)
	}
}

func TestSuspendDoubleResumePanics(t *testing.T) {
	rt := NewRuntime(Options{Workers: 1})
	defer rt.Shutdown()
	var resume atomic.Value
	rt.Spawn(Bind(Suspend(func(r func(int)) { resume.Store(r) }), func(int) M[Unit] { return Skip }))
	waitFor(t, func() bool { return resume.Load() != nil })
	r := resume.Load().(func(int))
	r(1)
	rt.WaitIdle()
	defer func() {
		if recover() == nil {
			t.Fatal("second resume did not panic")
		}
	}()
	r(2)
}

func TestBlioRunsOffWorker(t *testing.T) {
	// A blocking effect must not stall the worker loop: while one thread
	// blocks in Blio, another thread must keep running.
	rt := NewRuntime(Options{Workers: 1, BlioWorkers: 1})
	defer rt.Shutdown()
	gate := make(chan struct{})
	var progressed atomic.Bool
	rt.Spawn(Bind(Blio(func() int { <-gate; return 1 }), func(int) M[Unit] { return Skip }))
	rt.Spawn(Do(func() { progressed.Store(true) }))
	waitFor(t, func() bool { return progressed.Load() })
	close(gate)
	rt.WaitIdle()
}

func TestBlioeThrows(t *testing.T) {
	got, _ := observe(t, func(*logger) M[int] {
		return Catch(
			Blioe(func() (int, error) { return 0, errBoom }),
			func(error) M[int] { return Return(77) },
		)
	})
	if got != 77 {
		t.Fatalf("got %d, want 77", got)
	}
}

func TestSleepVirtualClock(t *testing.T) {
	clk := vclock.NewVirtual()
	rt := NewRuntime(Options{Workers: 1, Clock: clk})
	defer rt.Shutdown()
	var woke atomic.Int64
	rt.Run(Seq(
		Sleep(clk, 5*time.Millisecond),
		Do(func() { woke.Store(int64(clk.Now())) }),
	))
	if woke.Load() != int64(5*time.Millisecond) {
		t.Fatalf("woke at %v, want 5ms", time.Duration(woke.Load()))
	}
}

func TestSleepOrderingVirtualClock(t *testing.T) {
	clk := vclock.NewVirtual()
	rt := NewRuntime(Options{Workers: 1, Clock: clk})
	defer rt.Shutdown()
	var l logger
	rt.Run(Seq(
		Fork(Then(Sleep(clk, 3*time.Millisecond), l.add(3))),
		Fork(Then(Sleep(clk, 1*time.Millisecond), l.add(1))),
		Fork(Then(Sleep(clk, 2*time.Millisecond), l.add(2))),
	))
	if !equalInts(l.values(), []int{1, 2, 3}) {
		t.Fatalf("wake order = %v, want [1 2 3]", l.values())
	}
}

func TestSleepRealClock(t *testing.T) {
	clk := vclock.NewReal()
	rt := NewRuntime(Options{Workers: 1, Clock: clk})
	defer rt.Shutdown()
	start := time.Now()
	rt.Run(Sleep(clk, 10*time.Millisecond))
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("slept only %v", elapsed)
	}
}

// ---------------------------------------------------------------------------
// SMP: multiple workers (§4.4)
// ---------------------------------------------------------------------------

func TestMultipleWorkersRunAllThreads(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rt := NewRuntime(Options{Workers: workers})
			defer rt.Shutdown()
			const n = 5000
			var count atomic.Int64
			rt.Run(ForN(n, func(int) M[Unit] {
				return Fork(Then(Yield(), Do(func() { count.Add(1) })))
			}))
			if count.Load() != n {
				t.Fatalf("ran %d threads, want %d", count.Load(), n)
			}
		})
	}
}

func TestManyThreadsSmoke(t *testing.T) {
	// 100k threads each yielding a few times: the memory-test workload in
	// miniature.
	rt := NewRuntime(Options{Workers: 2})
	defer rt.Shutdown()
	const n = 100_000
	var count atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			rt.Spawn(Seq(Yield(), Yield(), Do(func() { count.Add(1) })))
		}
	}()
	wg.Wait()
	rt.WaitIdle()
	if count.Load() != n {
		t.Fatalf("completed %d, want %d", count.Load(), n)
	}
}

func TestShutdownIdempotent(t *testing.T) {
	rt := NewRuntime(Options{Workers: 1})
	rt.Run(Skip)
	rt.Shutdown()
	rt.Shutdown()
}

func TestSwitchesCounter(t *testing.T) {
	rt := NewRuntime(Options{Workers: 1, BatchSteps: 1})
	defer rt.Shutdown()
	before := rt.Switches()
	rt.Run(Seq(Yield(), Yield(), Yield()))
	if got := rt.Switches() - before; got < 4 {
		t.Fatalf("Switches delta = %d, want >= 4", got)
	}
}
