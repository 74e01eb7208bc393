package hybrid_test

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"hybrid"
)

// These tests exercise the public facade exactly as a downstream user
// would; the exhaustive suites live with the internal packages.

func TestFacadeQuickstart(t *testing.T) {
	rt := hybrid.NewRuntime(hybrid.Options{Workers: 2})
	defer rt.Shutdown()
	var count atomic.Int64
	rt.Run(hybrid.ForN(100, func(i int) hybrid.M[hybrid.Unit] {
		return hybrid.Fork(hybrid.Seq(
			hybrid.Yield(),
			hybrid.Do(func() { count.Add(1) }),
		))
	}))
	if count.Load() != 100 {
		t.Fatalf("count = %d", count.Load())
	}
}

func TestFacadeBindAndMap(t *testing.T) {
	rt := hybrid.NewRuntime(hybrid.Options{Workers: 1})
	defer rt.Shutdown()
	var got int
	rt.Run(hybrid.Bind(
		hybrid.Map(hybrid.Return(20), func(x int) int { return x * 2 }),
		func(x int) hybrid.M[hybrid.Unit] {
			return hybrid.Do(func() { got = x + 2 })
		},
	))
	if got != 42 {
		t.Fatalf("got %d", got)
	}
}

func TestFacadeExceptions(t *testing.T) {
	rt := hybrid.NewRuntime(hybrid.Options{Workers: 1})
	defer rt.Shutdown()
	boom := errors.New("boom")
	var handled atomic.Bool
	rt.Run(hybrid.Catch(
		hybrid.Then(hybrid.Throw[hybrid.Unit](boom), hybrid.Skip),
		func(err error) hybrid.M[hybrid.Unit] {
			return hybrid.Do(func() { handled.Store(errors.Is(err, boom)) })
		},
	))
	if !handled.Load() {
		t.Fatal("exception not handled through facade")
	}
}

func TestFacadeMVarAndChan(t *testing.T) {
	rt := hybrid.NewRuntime(hybrid.Options{Workers: 2})
	defer rt.Shutdown()
	v := hybrid.NewMVar[string]()
	ch := hybrid.NewChan[int](2)
	var s atomic.Value
	var n atomic.Int64
	rt.Run(hybrid.Seq(
		hybrid.Fork(v.Put("ping")),
		hybrid.Fork(ch.Send(9)),
		hybrid.Bind(v.Take(), func(x string) hybrid.M[hybrid.Unit] {
			return hybrid.Do(func() { s.Store(x) })
		}),
		hybrid.Bind(ch.Recv(), func(x int) hybrid.M[hybrid.Unit] {
			return hybrid.Do(func() { n.Store(int64(x)) })
		}),
	))
	if s.Load() != "ping" || n.Load() != 9 {
		t.Fatalf("mvar=%v chan=%d", s.Load(), n.Load())
	}
}

func TestFacadeVirtualClockSleep(t *testing.T) {
	clk := hybrid.NewVirtualClock()
	rt := hybrid.NewRuntime(hybrid.Options{Workers: 1, Clock: clk})
	defer rt.Shutdown()
	rt.Run(hybrid.Sleep(clk, 250*time.Millisecond))
	if got := time.Duration(clk.Now()); got != 250*time.Millisecond {
		t.Fatalf("virtual now = %v", got)
	}
}

func TestFacadeBuildTrace(t *testing.T) {
	tr := hybrid.BuildTrace(hybrid.Seq(hybrid.Yield(), hybrid.Skip))
	if tr == nil {
		t.Fatal("nil trace")
	}
}

func TestFacadeSuspendResume(t *testing.T) {
	rt := hybrid.NewRuntime(hybrid.Options{Workers: 1})
	defer rt.Shutdown()
	var got atomic.Int64
	rt.Run(hybrid.Bind(
		hybrid.Suspend(func(resume func(int)) { resume(77) }),
		func(x int) hybrid.M[hybrid.Unit] {
			return hybrid.Do(func() { got.Store(int64(x)) })
		},
	))
	if got.Load() != 77 {
		t.Fatalf("got %d", got.Load())
	}
}

func TestFacadeLoopsAndCombinators(t *testing.T) {
	rt := hybrid.NewRuntime(hybrid.Options{Workers: 1})
	defer rt.Shutdown()
	var log []int
	i := 0
	rt.Run(hybrid.Seq(
		hybrid.ForEach([]int{1, 2, 3}, func(x int) hybrid.M[hybrid.Unit] {
			return hybrid.Do(func() { log = append(log, x) })
		}),
		hybrid.While(
			hybrid.NBIO(func() bool { return i < 2 }),
			hybrid.Do(func() { i++; log = append(log, 10+i) }),
		),
		hybrid.Bind(
			hybrid.FoldN(4, 0, func(j, acc int) hybrid.M[int] { return hybrid.Return(acc + j) }),
			func(sum int) hybrid.M[hybrid.Unit] {
				return hybrid.Do(func() { log = append(log, sum) })
			},
		),
		hybrid.Loop(hybrid.NBIO(func() bool {
			log = append(log, 99)
			return len(log) < 8
		})),
	))
	want := []int{1, 2, 3, 11, 12, 6, 99, 99}
	if len(log) != len(want) {
		t.Fatalf("log = %v", log)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

func TestFacadeBlioAndNBIOe(t *testing.T) {
	rt := hybrid.NewRuntime(hybrid.Options{Workers: 1})
	defer rt.Shutdown()
	var blioRan, caught atomic.Bool
	rt.Run(hybrid.Seq(
		hybrid.Bind(hybrid.Blio(func() int { blioRan.Store(true); return 5 }),
			func(int) hybrid.M[hybrid.Unit] { return hybrid.Skip }),
		hybrid.Catch(
			hybrid.Then(hybrid.NBIOe(func() (int, error) { return 0, errors.New("x") }), hybrid.Skip),
			func(error) hybrid.M[hybrid.Unit] { return hybrid.Do(func() { caught.Store(true) }) },
		),
		hybrid.Catch(
			hybrid.Then(hybrid.Blioe(func() (int, error) { return 0, errors.New("y") }), hybrid.Skip),
			func(error) hybrid.M[hybrid.Unit] { return hybrid.Skip },
		),
	))
	if !blioRan.Load() || !caught.Load() {
		t.Fatalf("blio=%v caught=%v", blioRan.Load(), caught.Load())
	}
}

func TestFacadeHaltAndOnException(t *testing.T) {
	rt := hybrid.NewRuntime(hybrid.Options{Workers: 1})
	defer rt.Shutdown()
	var cleanup, after atomic.Bool
	rt.Run(hybrid.Seq(
		hybrid.Fork(hybrid.Catch(
			hybrid.Then(
				hybrid.OnException(
					hybrid.Throw[hybrid.Unit](errors.New("boom")),
					hybrid.Do(func() { cleanup.Store(true) }),
				),
				hybrid.Skip,
			),
			func(error) hybrid.M[hybrid.Unit] { return hybrid.Skip },
		)),
		hybrid.Fork(hybrid.Seq(hybrid.Halt[hybrid.Unit](), hybrid.Do(func() { after.Store(true) }))),
	))
	if !cleanup.Load() {
		t.Fatal("OnException handler did not run")
	}
	if after.Load() {
		t.Fatal("code after Halt ran")
	}
}

func TestFacadeFirstOfAndTimeout(t *testing.T) {
	clk := hybrid.NewVirtualClock()
	rt := hybrid.NewRuntime(hybrid.Options{Workers: 1, Clock: clk})
	defer rt.Shutdown()
	var winner atomic.Int64
	var timedOut atomic.Bool
	done := make(chan struct{})
	rt.Spawn(hybrid.Seq(
		hybrid.Bind(
			hybrid.FirstOf(
				hybrid.Then(hybrid.Sleep(clk, 5*time.Millisecond), hybrid.Return(5)),
				hybrid.Then(hybrid.Sleep(clk, 50*time.Millisecond), hybrid.Return(50)),
			),
			func(x int) hybrid.M[hybrid.Unit] { return hybrid.Do(func() { winner.Store(int64(x)) }) },
		),
		hybrid.Catch(
			hybrid.Then(
				hybrid.Timeout(clk, time.Millisecond, hybrid.Suspend(func(func(int)) {})),
				hybrid.Skip,
			),
			func(err error) hybrid.M[hybrid.Unit] {
				return hybrid.Do(func() { timedOut.Store(errors.Is(err, hybrid.ErrTimedOut)) })
			},
		),
		hybrid.Do(func() { close(done) }),
	))
	<-done
	if winner.Load() != 5 {
		t.Fatalf("winner = %d", winner.Load())
	}
	if !timedOut.Load() {
		t.Fatal("Timeout did not raise ErrTimedOut")
	}
}

func TestFacadeSemaphoreWaitGroup(t *testing.T) {
	rt := hybrid.NewRuntime(hybrid.Options{Workers: 2})
	defer rt.Shutdown()
	sem := hybrid.NewSemaphore(1)
	wg := hybrid.NewWaitGroup(3)
	var count atomic.Int64
	rt.Run(hybrid.Seq(
		hybrid.ForN(3, func(int) hybrid.M[hybrid.Unit] {
			return hybrid.Fork(hybrid.Seq(
				sem.Acquire(),
				hybrid.Do(func() { count.Add(1) }),
				sem.Release(),
				wg.Done(),
			))
		}),
		wg.Wait(),
	))
	if count.Load() != 3 {
		t.Fatalf("count = %d", count.Load())
	}
}

func TestFacadeMutexTryLockAndWithLock(t *testing.T) {
	rt := hybrid.NewRuntime(hybrid.Options{Workers: 1})
	defer rt.Shutdown()
	m := hybrid.NewMutex()
	var ok atomic.Bool
	rt.Run(hybrid.Seq(
		m.WithLock(hybrid.Skip),
		hybrid.Bind(m.TryLock(), func(got bool) hybrid.M[hybrid.Unit] {
			return hybrid.Do(func() { ok.Store(got) })
		}),
		m.Unlock(),
	))
	if !ok.Load() {
		t.Fatal("TryLock on free mutex failed")
	}
}
