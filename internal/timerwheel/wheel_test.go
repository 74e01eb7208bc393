package timerwheel

import (
	"math/rand"
	"testing"
	"time"

	"hybrid/internal/vclock"
)

// stopper abstracts wheel and clock timer handles so the same op script
// drives both implementations.
type stopper interface{ Stop() bool }

type opKind int

const (
	opSchedule opKind = iota
	opStop
)

type op struct {
	at    vclock.Time // virtual time the op executes at
	kind  opKind
	delay vclock.Duration // schedule: deadline offset from op time
	id    int             // schedule: timer identity
	tgt   int             // stop: id of the timer to cancel
}

type fire struct {
	at vclock.Time
	id int
}

// genOps builds a deterministic op script: schedules spanning all wheel
// levels (sub-slot to multi-minute), exact slot-boundary deadlines, zero
// delays, and stops of arbitrary earlier timers.
func genOps(seed int64, n int) []op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]op, 0, n)
	var at vclock.Time
	nextID := 0
	for i := 0; i < n; i++ {
		at += vclock.Time(rng.Int63n(int64(20 * time.Millisecond)))
		if nextID > 0 && rng.Intn(4) == 0 {
			ops = append(ops, op{at: at, kind: opStop, tgt: rng.Intn(nextID)})
			continue
		}
		var d vclock.Duration
		switch rng.Intn(6) {
		case 0: // within the current level-0 slot, incl. zero
			d = vclock.Duration(rng.Int63n(int64(DefaultGranularity)))
		case 1: // level 0
			d = vclock.Duration(rng.Int63n(int64(64 * DefaultGranularity)))
		case 2: // level 1
			d = vclock.Duration(rng.Int63n(int64(64 * 64 * DefaultGranularity)))
		case 3: // level 2 territory: seconds to minutes
			d = vclock.Duration(rng.Int63n(int64(4 * time.Minute)))
		case 4: // exact slot boundaries, where off-by-one rounding would bite
			d = vclock.Duration(rng.Int63n(64)) * DefaultGranularity
		case 5: // duplicate timestamps: same-instant ordering must hold
			d = vclock.Duration(rng.Int63n(4)) * (17 * time.Millisecond)
		}
		ops = append(ops, op{at: at, kind: opSchedule, delay: d, id: nextID})
		nextID++
	}
	return ops
}

// runScript executes the op script against either the wheel or bare
// clock.After and records every firing as (virtual time, id).
func runScript(t *testing.T, ops []op, useWheel bool) []fire {
	t.Helper()
	clk := vclock.NewVirtual()
	var w *Wheel
	if useWheel {
		w = New(clk)
	}
	var fires []fire
	handles := make(map[int]stopper)

	// Hold the clock while staging the driver events so nothing
	// dispatches until the script is fully scheduled.
	clk.Enter()
	for i := range ops {
		o := ops[i]
		clk.After(vclock.Duration(o.at-clk.Now()), func() {
			switch o.kind {
			case opSchedule:
				fn := func() { fires = append(fires, fire{at: clk.Now(), id: o.id}) }
				if useWheel {
					handles[o.id] = w.Schedule(o.delay, fn)
				} else {
					handles[o.id] = clk.After(o.delay, fn)
				}
			case opStop:
				if h, ok := handles[o.tgt]; ok {
					h.Stop()
				}
			}
		})
	}
	clk.Exit() // dispatches the whole script to quiescence

	if n := clk.Pending(); n != 0 {
		t.Fatalf("useWheel=%v: %d events still pending after quiescence", useWheel, n)
	}
	return fires
}

// TestWheelMatchesHeapReference is the determinism property test: under a
// random mix of schedules (all levels, boundary and zero delays, ties)
// and cancels, the wheel must fire exactly the timers the bare clock heap
// fires, at identical virtual times, in identical order.
func TestWheelMatchesHeapReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		ops := genOps(seed, 400)
		got := runScript(t, ops, true)
		want := runScript(t, ops, false)
		if len(got) != len(want) {
			t.Fatalf("seed %d: wheel fired %d timers, reference fired %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing %d diverged: wheel (t=%v id=%d) vs reference (t=%v id=%d)",
					seed, i, got[i].at, got[i].id, want[i].at, want[i].id)
			}
		}
	}
}

// TestStopDisarmsTick: cancelling the last bucketed timer must remove the
// wheel's cascade event too, so an idle simulation has zero pending
// events (pinned end-of-run timestamps depend on this).
func TestStopDisarmsTick(t *testing.T) {
	clk := vclock.NewVirtual()
	w := New(clk)
	clk.Enter()
	a := w.Schedule(500*time.Millisecond, func() { t.Fatal("a fired") })
	b := w.Schedule(2*time.Second, func() { t.Fatal("b fired") })
	if clk.Pending() == 0 {
		t.Fatal("expected an armed tick while timers are bucketed")
	}
	if !a.Stop() || !b.Stop() {
		t.Fatal("Stop reported already-fired for live timers")
	}
	if n := clk.Pending(); n != 0 {
		t.Fatalf("wheel drained but %d clock events remain", n)
	}
	if a.Stop() {
		t.Fatal("second Stop reported success")
	}
	clk.Exit()
	if got := clk.Now(); got != 0 {
		t.Fatalf("time advanced to %v on an empty wheel", got)
	}
}

// TestHorizonClamp: a deadline beyond the top level's span still fires at
// the exact requested instant, via repeated cascades.
func TestHorizonClamp(t *testing.T) {
	clk := vclock.NewVirtual()
	w := New(clk)
	const d = 30 * 24 * time.Hour
	var firedAt vclock.Time = -1
	clk.Enter()
	w.Schedule(d, func() { firedAt = clk.Now() })
	clk.Exit()
	if want := vclock.Time(d); firedAt != want {
		t.Fatalf("clamped timer fired at %v, want %v", firedAt, want)
	}
}

// TestRestartPattern exercises the TCP per-ACK shape: schedule, cancel,
// reschedule thousands of times with only a bounded number of clock
// events ever materializing.
func TestRestartPattern(t *testing.T) {
	clk := vclock.NewVirtual()
	w := New(clk)
	clk.Enter()
	var tm *Timer
	for i := 0; i < 5000; i++ {
		if tm != nil {
			tm.Stop()
		}
		tm = w.Schedule(200*time.Millisecond, func() {})
	}
	if n := clk.Pending(); n > 1 {
		t.Fatalf("restart pattern left %d clock events; want <= 1 (the tick)", n)
	}
	tm.Stop()
	clk.Exit()
}

// TestRealClockPassthrough: on a wall clock the wheel defers to After.
func TestRealClockPassthrough(t *testing.T) {
	clk := vclock.NewReal()
	w := New(clk)
	ch := make(chan struct{})
	w.Schedule(time.Millisecond, func() { close(ch) })
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("passthrough timer never fired")
	}
	tm := w.Schedule(time.Hour, func() {})
	if !tm.Stop() {
		t.Fatal("passthrough Stop failed")
	}
}
