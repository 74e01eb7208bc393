package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"hybrid/internal/vclock"
)

// A supervised body that always fails runs MaxRestarts+1 times with the
// backoff schedule between runs, then the failure goes to OnGiveUp and
// the thread ends cleanly (no uncaught error).
func TestSuperviseBoundedRestartsWithBackoff(t *testing.T) {
	clk := vclock.NewVirtual()
	rt := NewRuntime(Options{Workers: 1, Clock: clk})
	defer rt.Shutdown()

	boom := errors.New("poisoned")
	var runs, restarts atomic.Int64
	var gaveUp atomic.Value
	body := NBIOe(func() (Unit, error) { runs.Add(1); return Unit{}, boom })
	rt.Run(Supervise(clk, RestartPolicy{
		MaxRestarts: 3,
		Backoff:     Backoff{Base: time.Millisecond, Factor: 2},
		OnRestart:   func(int, error) { restarts.Add(1) },
		OnGiveUp:    func(err error) { gaveUp.Store(err) },
	}, Then(body, Skip)))

	if runs.Load() != 4 {
		t.Fatalf("body ran %d times, want 4 (1 + 3 restarts)", runs.Load())
	}
	if restarts.Load() != 3 {
		t.Fatalf("OnRestart fired %d times, want 3", restarts.Load())
	}
	if err, _ := gaveUp.Load().(error); !errors.Is(err, boom) {
		t.Fatalf("OnGiveUp got %v, want the body's error", gaveUp.Load())
	}
	if got := rt.UncaughtErrors(); len(got) != 0 {
		t.Fatalf("supervised failure leaked as uncaught: %v", got)
	}
	// Backoff 1ms, 2ms, 4ms between the four runs.
	if clk.Now() != vclock.Time(7*time.Millisecond) {
		t.Fatalf("virtual time = %v, want 7ms of restart backoff", clk.Now())
	}
}

// A body that recovers mid-schedule stops consuming restart budget.
func TestSuperviseRecovers(t *testing.T) {
	clk := vclock.NewVirtual()
	rt := NewRuntime(Options{Workers: 1, Clock: clk})
	defer rt.Shutdown()

	var runs atomic.Int64
	var gaveUp atomic.Bool
	body := NBIOe(func() (Unit, error) {
		if runs.Add(1) < 3 {
			return Unit{}, errors.New("transient")
		}
		return Unit{}, nil
	})
	rt.Run(Supervise(clk, RestartPolicy{
		MaxRestarts: 5,
		Backoff:     Backoff{Base: time.Millisecond},
		OnGiveUp:    func(error) { gaveUp.Store(true) },
	}, Then(body, Skip)))

	if runs.Load() != 3 || gaveUp.Load() {
		t.Fatalf("runs=%d gaveUp=%v, want recovery on run 3", runs.Load(), gaveUp.Load())
	}
}

// With TrapPanics, a panicking body is a restartable failure like any
// other: the supervisor sees *PanicError and restarts — one poisoned
// thread never kills the runtime.
func TestSuperviseIsolatesPanics(t *testing.T) {
	clk := vclock.NewVirtual()
	rt := NewRuntime(Options{Workers: 1, Clock: clk, TrapPanics: true})
	defer rt.Shutdown()

	var runs atomic.Int64
	var gaveUp atomic.Value
	rt.Run(Supervise(clk, RestartPolicy{
		MaxRestarts: 2,
		OnGiveUp:    func(err error) { gaveUp.Store(err) },
	}, Do(func() { runs.Add(1); panic("poison pill") })))

	if runs.Load() != 3 {
		t.Fatalf("panicking body ran %d times, want 3", runs.Load())
	}
	var pe *PanicError
	if err, _ := gaveUp.Load().(error); !errors.As(err, &pe) {
		t.Fatalf("OnGiveUp got %v, want *PanicError", gaveUp.Load())
	}
	// The runtime survived: it can still run ordinary threads.
	var alive atomic.Bool
	rt.Run(Do(func() { alive.Store(true) }))
	if !alive.Load() {
		t.Fatal("runtime dead after supervised panics")
	}
}

// Nil OnGiveUp re-raises, so supervisors nest: the outer one sees the
// inner one's final failure.
func TestSuperviseNests(t *testing.T) {
	clk := vclock.NewVirtual()
	rt := NewRuntime(Options{Workers: 1, Clock: clk})
	defer rt.Shutdown()

	boom := errors.New("boom")
	var runs atomic.Int64
	var outer atomic.Value
	inner := Supervise(clk, RestartPolicy{MaxRestarts: 1},
		Then(NBIOe(func() (Unit, error) { runs.Add(1); return Unit{}, boom }), Skip))
	rt.Run(Supervise(clk, RestartPolicy{
		MaxRestarts: 1,
		OnGiveUp:    func(err error) { outer.Store(err) },
	}, inner))

	// Inner runs twice per outer run; outer restarts once: 4 total.
	if runs.Load() != 4 {
		t.Fatalf("body ran %d times, want 4 (2 inner × 2 outer)", runs.Load())
	}
	if err, _ := outer.Load().(error); !errors.Is(err, boom) {
		t.Fatalf("outer OnGiveUp got %v", outer.Load())
	}
}
