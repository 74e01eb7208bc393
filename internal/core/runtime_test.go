package core

import (
	"errors"
	"fmt"
	"strings"
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
	if got := rt.Stats().Snapshot().Counter("spawned"); got != n+1 {
		t.Fatalf("spawned = %d, want %d", got, n+1)
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
	rt := NewRuntime(Options{Workers: 1})
	defer rt.Shutdown()
	rt.Run(Seq(
		Fork(Throw[Unit](errBoom)),
		Fork(Do(func() { other.Store(true) })),
	))
	if !other.Load() {
		t.Fatal("unrelated thread did not run")
	}
	if errs := rt.UncaughtErrors(); len(errs) != 1 || errs[0] != errBoom {
		t.Fatalf("uncaught = %v, want [boom]", errs)
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

// mustPanic fails the test unless f panics with a message containing
// want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if v := recover(); v == nil || !strings.Contains(fmt.Sprint(v), want) {
			t.Fatalf("panic %v, want one containing %q", v, want)
		}
	}()
	f()
}

// armFunc arms a test's park record with a function.
type armFunc func(w *WaitNode)

func (f armFunc) Arm(w *WaitNode) { f(w) }

// parkOn is a trace that parks on w and ends when woken.
func parkOn(w *WaitNode) M[Unit] {
	return func(k func(Unit) Trace) Trace {
		w.Cont = k(Unit{})
		return w
	}
}

// A park record's Wake is once per park. Two Wakes racing for one park
// resume the thread once and the loser panics; a Suspend resume kept from
// an earlier park of a replayed record panics, although the record is
// parked again; and a Wake that arrives after its thread died while
// parked is dropped, whether or not the block was recycled. make race-smp
// runs this under the race detector at GOMAXPROCS=4.
func TestWaitNodeDoubleAndStaleResume(t *testing.T) {
	t.Run("double wake", func(t *testing.T) {
		rt := NewRuntime(Options{Workers: 2})
		defer rt.Shutdown()
		var ran atomic.Int32
		armed := make(chan struct{})
		w := &WaitNode{Armer: armFunc(func(*WaitNode) { close(armed) })}
		rt.Spawn(Then(parkOn(w), Do(func() { ran.Add(1) })))
		<-armed
		var panics atomic.Int32
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() {
					if v := recover(); v != nil {
						if !strings.Contains(fmt.Sprint(v), "woken twice") {
							t.Errorf("panic %v", v)
						}
						panics.Add(1)
					}
				}()
				w.Wake()
			}()
		}
		wg.Wait()
		rt.WaitIdle()
		if ran.Load() != 1 || panics.Load() != 1 {
			t.Fatalf("two racing Wakes: thread ran %d times, %d panicked; want 1 and 1", ran.Load(), panics.Load())
		}
		mustPanic(t, "woken twice", w.Wake)
	})

	t.Run("resume from an earlier park", func(t *testing.T) {
		rt := NewRuntime(Options{Workers: 2})
		defer rt.Shutdown()
		resumes := make(chan func(int), 2)
		var got []int
		park := Bind(Suspend(func(r func(int)) { resumes <- r }), func(x int) M[Unit] {
			return Do(func() { got = append(got, x) })
		})
		rt.Spawn(RepeatN(2, park)) // one application: one record, parked twice
		first := <-resumes
		first(1)
		second := <-resumes // the record is parked again, one generation on
		mustPanic(t, "Suspend resumed twice", func() { first(99) })
		second(2)
		rt.WaitIdle()
		if fmt.Sprint(got) != "[1 2]" {
			t.Fatalf("resumed values %v, want [1 2]", got)
		}
	})

	t.Run("wake after the thread died", func(t *testing.T) {
		rt := NewRuntime(Options{Workers: 2, TrapPanics: true})
		defer rt.Shutdown()
		var wake func()
		w := &WaitNode{Armer: armFunc(func(w *WaitNode) {
			wake = w.Wake // linked into its event source, then the arm fails
			panic("arm failed")
		})}
		rt.Run(parkOn(w))
		if errs := rt.UncaughtErrors(); len(errs) != 1 {
			t.Fatalf("uncaught %v, want the arm's panic", errs)
		}
		var ran atomic.Int32
		for i := 0; i < 8; i++ { // recycle the dead thread's block
			rt.Run(Do(func() { ran.Add(1) }))
		}
		wake()
		rt.Run(Skip)
		snap := rt.Stats().Snapshot()
		if r := snap.Counter("resumes"); r != 0 || ran.Load() != 8 || rt.Live() != 0 {
			t.Fatalf("stale Wake: %d resumes, %d runs, %d live; want 0, 8, 0", r, ran.Load(), rt.Live())
		}
		if c, s := snap.Counter("completed"), snap.Counter("spawned"); c != s {
			t.Fatalf("%d threads completed of %d spawned: the stale Wake ran a dead block", c, s)
		}
	})
}

// A forked child builds its own trace each time the fork runs: a cached
// body that forks three times starts three threads, each parking on a
// record of its own — sharing one trace, the second would park on the
// first one's record.
func TestForkChildBuildsOwnTrace(t *testing.T) {
	rt := NewRuntime(Options{Workers: 1, TrapPanics: true})
	defer rt.Shutdown()
	resumes := make(chan func(Unit), 3)
	var ran atomic.Int32
	child := Then(Suspend(func(r func(Unit)) { resumes <- r }), Do(func() { ran.Add(1) }))
	rt.Spawn(RepeatN(3, Fork(child)))
	// Every child parks, or dies trying: a shared record's second park
	// panics, and TrapPanics turns that into an uncaught error.
	waitFor(t, func() bool { return len(resumes)+len(rt.UncaughtErrors()) == 3 })
	if errs := rt.UncaughtErrors(); len(errs) != 0 {
		t.Fatalf("three forks: %d children parked, uncaught %v", len(resumes), errs)
	}
	for i := 0; i < 3; i++ {
		(<-resumes)(Unit{})
	}
	rt.WaitIdle()
	if ran.Load() != 3 {
		t.Fatalf("three forks: %d children ran, want 3", ran.Load())
	}
}

func TestBlioRunsOffWorker(t *testing.T) {
	// A blocking effect must not stall the worker loop: while one thread
	// blocks in Blio, another thread must keep running.
	rt := NewRuntime(Options{Workers: 1})
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

// On a virtual clock a blocking effect is one clock event, ordered by the
// sequence number taken when the thread submits it. Sixteen threads submit
// at one timestamp, and a seventeenth registers an After(0) (a zero Sleep)
// between the eighth submission and the ninth: the threads resume in
// submission order with the sleeper between them, and the clock does not
// move across the call — whatever the batch size.
func TestBlioVirtualResumesInSubmissionOrder(t *testing.T) {
	for _, batch := range []int{1, 128} {
		clk := vclock.NewVirtual()
		rt := NewRuntime(Options{Workers: 1, BatchSteps: batch, Clock: clk})
		var mu sync.Mutex
		var log []string
		note := func(s string) M[Unit] {
			return Do(func() { mu.Lock(); log = append(log, s); mu.Unlock() })
		}
		const at = vclock.Time(time.Millisecond)
		var moved atomic.Int32
		blio := func(i int) M[Unit] {
			return Fork(Bind(Blio(clk.Now), func(then vclock.Time) M[Unit] {
				if then != at || clk.Now() != at {
					moved.Add(1)
				}
				return note(fmt.Sprintf("blio %d", i))
			}))
		}
		// A child's first node submits, and a forked child runs before
		// the root's next fork, so the children submit in fork order.
		rt.Run(Seq(
			Sleep(clk, time.Millisecond),
			ForN(8, blio),
			Fork(Then(Sleep(clk, 0), note("event"))),
			ForN(8, func(i int) M[Unit] { return blio(8 + i) }),
		))
		rt.Shutdown()

		var want []string
		for i := 0; i < 16; i++ {
			if i == 8 {
				want = append(want, "event")
			}
			want = append(want, fmt.Sprintf("blio %d", i))
		}
		if fmt.Sprint(log) != fmt.Sprint(want) {
			t.Fatalf("BatchSteps %d: resume order\n%v\nwant\n%v", batch, log, want)
		}
		if n := moved.Load(); n != 0 {
			t.Fatalf("BatchSteps %d: %d threads saw the clock move across Blio", batch, n)
		}
	}
}

// TestAllocBlioVirtual pins one Blio applied and run on a virtual clock:
// its node, its effect record, and the timer the node owns with its
// resume bound, four allocations — what the node, effect closure, resume
// closure and one-shot clock event cost while each run made its own event.
// ForN applies the Blio afresh every trip.
func TestAllocBlioVirtual(t *testing.T) {
	rt := NewRuntime(Options{Workers: 1, Clock: vclock.NewVirtual()})
	t.Cleanup(rt.Shutdown)
	const trips = 400
	var n int
	body := Blio(func() Unit { n++; return Unit{} })
	total := testing.AllocsPerRun(10, func() {
		n = 0
		rt.Run(ForN(trips, func(int) M[Unit] { return body }))
		if n != trips {
			t.Fatalf("Blio ran %d times, want %d", n, trips)
		}
	})
	if per := total / trips; per > 4.05 {
		t.Fatalf("a virtual Blio applied and run allocates %.2f allocs, want 4", per)
	} else {
		t.Logf("a virtual Blio applied and run: %.2f allocs", per)
	}
}

// TestAllocBlioReplay pins a retained Blio re-forced on a virtual clock:
// its node re-arms the timer it owns, so a run allocates nothing (two
// while every run made a resume closure and a one-shot clock event).
// RepeatN applies the Blio once and re-forces its node every trip.
func TestAllocBlioReplay(t *testing.T) {
	rt := NewRuntime(Options{Workers: 1, Clock: vclock.NewVirtual()})
	t.Cleanup(rt.Shutdown)
	const trips = 400
	var n int
	body := Blio(func() Unit { n++; return Unit{} })
	total := testing.AllocsPerRun(10, func() {
		n = 0
		rt.Run(RepeatN(trips, body))
		if n != trips {
			t.Fatalf("Blio ran %d times, want %d", n, trips)
		}
	})
	if per := total / trips; per > 0.05 {
		t.Fatalf("a re-forced virtual Blio allocates %.2f allocs, want 0", per)
	} else {
		t.Logf("a re-forced virtual Blio: %.3f allocs", per)
	}
}

// TestAllocSleepReplay pins Sleep's spine: one application re-forced
// for every sleep re-arms the timer it owns and allocates nothing.
func TestAllocSleepReplay(t *testing.T) {
	clk := vclock.NewVirtual()
	rt := NewRuntime(Options{Workers: 1, Clock: clk})
	t.Cleanup(rt.Shutdown)
	const sleeps = 400
	body := Sleep(clk, time.Microsecond)
	total := testing.AllocsPerRun(10, func() { rt.Run(RepeatN(sleeps, body)) })
	if per := total / sleeps; per > 0.05 {
		t.Fatalf("re-forced Sleep allocates %.2f allocs, want 0", per)
	} else {
		t.Logf("re-forced Sleep: %.2f allocs", per)
	}
}

// TestAllocNBIOApply pins NBIO, NBIOe and Do at one object per
// application: the record that is the application's node (2 while each
// application made a node and its effect closure). Each M is built
// beforehand, once directly and once inside a //go:noinline wrapper, so
// that what the inliner keeps or drops of a constructor cannot hide a
// closure, and one application of each is counted.
func TestAllocNBIOApply(t *testing.T) {
	f := func() int { return 1 }
	fe := func() (int, error) { return 1, nil }
	do := func() {}
	k := func(int) Trace { return nil }
	ku := func(Unit) Trace { return nil }
	for _, c := range []struct {
		name  string
		apply func()
	}{
		{"NBIO", applyOnce(NBIO(f), k)},
		{"NBIO via", applyOnce(nbioVia(f), k)},
		{"NBIOe", applyOnce(NBIOe(fe), k)},
		{"NBIOe via", applyOnce(nbioeVia(fe), k)},
		{"Do", applyOnce(Do(do), ku)},
		{"Do via", applyOnce(doVia(do), ku)},
	} {
		if n := testing.AllocsPerRun(100, c.apply); n != 1 {
			t.Errorf("%s: an application allocates %.2f objects, want 1", c.name, n)
		}
	}
}

func applyOnce[A any](m M[A], k func(A) Trace) func() { return func() { m(k) } }

//go:noinline
func nbioVia(f func() int) M[int] { return NBIO(f) }

//go:noinline
func nbioeVia(f func() (int, error)) M[int] { return NBIOe(f) }

//go:noinline
func doVia(f func()) M[Unit] { return Do(f) }

// TestAllocSleepApply pins Sleep's application at its one record, which
// is its park's arm (2 when the application bound the arm as a method
// value).
func TestAllocSleepApply(t *testing.T) {
	m := Sleep(vclock.NewVirtual(), time.Microsecond)
	k := func(Unit) Trace { return nil }
	if n := testing.AllocsPerRun(100, func() { m(k) }); n != 1 {
		t.Fatalf("a Sleep application allocates %.2f objects, want 1", n)
	}
}

// TestAllocSuspendPark pins a Suspend application parked once: its record,
// which is its park's arm, and the resume closure that carries the park's
// generation (3 when the application bound the arm as a closure). ForN
// applies the Suspend afresh per iteration, and register hands the resume
// to its event source, which calls it inside the arm.
func TestAllocSuspendPark(t *testing.T) {
	rt := NewRuntime(Options{Workers: 1, Clock: vclock.NewVirtual()})
	t.Cleanup(rt.Shutdown)
	const parks = 400
	var source func(Unit)
	park := Suspend(func(resume func(Unit)) { source = resume; source(Unit{}) })
	total := testing.AllocsPerRun(10, func() {
		rt.Run(ForN(parks, func(int) M[Unit] { return park }))
	})
	if per := total / parks; per > 2.05 {
		t.Fatalf("a Suspend applied and parked once allocates %.2f objects, want 2", per)
	} else {
		t.Logf("a Suspend applied and parked once: %.3f allocs", per)
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
	before := rt.Stats().Snapshot().Counter("dispatches")
	rt.Run(Seq(Yield(), Yield(), Yield()))
	if got := rt.Stats().Snapshot().Counter("dispatches") - before; got < 4 {
		t.Fatalf("dispatches delta = %d, want >= 4", got)
	}
}
