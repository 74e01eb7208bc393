package overload

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybrid/internal/core"
	"hybrid/internal/vclock"
)

const ms = vclock.Duration(time.Millisecond)

// waitFor polls until cond holds or the test times out.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// MaxInflight admits up to the bound; later acquirers park FIFO and wake
// as slots release.
func TestLimiterInflightBound(t *testing.T) {
	clk := vclock.NewVirtual()
	rt := core.NewRuntime(core.Options{Workers: 1, Clock: clk})
	defer rt.Shutdown()

	lim := NewLimiter(LimiterConfig{MaxInflight: 2})
	var mu sync.Mutex
	var order []int
	var count atomic.Int64
	admitted := func(i int) core.M[core.Unit] {
		return core.Then(lim.Acquire(), core.Do(func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			count.Add(1)
		}))
	}
	for i := 1; i <= 4; i++ {
		rt.Spawn(admitted(i))
	}
	waitFor(t, func() bool { return count.Load() == 2 })
	if lim.Inflight() != 2 {
		t.Fatalf("inflight %d, want 2", lim.Inflight())
	}
	if count.Load() != 2 {
		t.Fatalf("admitted %d threads past MaxInflight 2", count.Load())
	}

	// Each release admits the oldest waiter, in order.
	lim.Release()
	waitFor(t, func() bool { return count.Load() == 3 })
	lim.Release()
	waitFor(t, func() bool { return count.Load() == 4 })
	rt.WaitIdle()

	mu.Lock()
	defer mu.Unlock()
	want := []int{1, 2, 3, 4}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want FIFO %v", order, want)
		}
	}
	// Two slots released, two transferred to waiters and still held.
	if lim.Inflight() != 2 {
		t.Fatalf("inflight %d after two transfers, want 2", lim.Inflight())
	}
}

// TryAcquire never blocks: it admits only when a slot is free.
func TestLimiterTryAcquire(t *testing.T) {
	lim := NewLimiter(LimiterConfig{MaxInflight: 1})
	if !lim.TryAcquire() {
		t.Fatal("first TryAcquire refused")
	}
	if lim.TryAcquire() {
		t.Fatal("TryAcquire admitted past MaxInflight")
	}
	lim.Release()
	if !lim.TryAcquire() {
		t.Fatal("TryAcquire refused after Release")
	}
}

// A connection thread that panics still releases its admission slot when
// Acquire is paired with Release through core.Ensure — the limiter never
// leaks capacity to dead threads.
func TestLimiterReleaseOnPanickedThread(t *testing.T) {
	clk := vclock.NewVirtual()
	rt := core.NewRuntime(core.Options{Workers: 1, Clock: clk, TrapPanics: true})
	defer rt.Shutdown()

	lim := NewLimiter(LimiterConfig{MaxInflight: 1})
	rt.Run(core.Then(lim.Acquire(),
		core.Ensure(lim.Release, core.Do(func() { panic("conn thread died") }))))
	if got := lim.Inflight(); got != 0 {
		t.Fatalf("inflight %d after panicked thread, want 0 (leaked slot)", got)
	}
	var again atomic.Bool
	rt.Run(core.Then(lim.Acquire(), core.Do(func() { again.Store(true) })))
	if !again.Load() {
		t.Fatal("slot not reusable after panicked thread released it")
	}
}

// The breaker trips after the configured run of consecutive failures,
// sheds while open, probes after the cooldown, and closes on a
// successful probe — all at deterministic virtual times.
func TestBreakerLifecycle(t *testing.T) {
	clk := vclock.NewVirtual()
	b := NewBreaker(clk, BreakerConfig{FailureThreshold: 3, Cooldown: 50 * ms})
	boom := errors.New("disk error")

	// Interleaved success resets the consecutive-failure count.
	b.Observe(boom)
	b.Observe(boom)
	b.Observe(nil)
	for i := 0; i < 3; i++ {
		if admit, _ := b.Allow(); !admit {
			t.Fatalf("closed breaker shed request %d", i)
		}
		b.Observe(boom)
	}
	if b.State() != Open {
		t.Fatalf("state %v after 3 consecutive failures, want open", b.State())
	}
	if admit, _ := b.Allow(); admit {
		t.Fatal("open breaker admitted during cooldown")
	}

	// Advance virtual time past the cooldown: next Allow is the probe.
	advance(clk, 50*ms)
	admit, probe := b.Allow()
	if !admit || !probe {
		t.Fatalf("Allow after cooldown = (%v, %v), want probe admission", admit, probe)
	}
	// Only one probe at a time.
	if admit, _ := b.Allow(); admit {
		t.Fatal("second concurrent probe admitted")
	}
	b.Observe(nil)
	if b.State() != Closed {
		t.Fatalf("state %v after successful probe, want closed", b.State())
	}

	snap := b.Metrics().Snapshot()
	if snap.Counter("breaker_trips") != 1 || snap.Counter("breaker_closes") != 1 {
		t.Fatalf("trips=%d closes=%d, want 1/1",
			snap.Counter("breaker_trips"), snap.Counter("breaker_closes"))
	}
	if snap.Counter("breaker_sheds") != 2 || snap.Counter("breaker_probes") != 1 {
		t.Fatalf("sheds=%d probes=%d, want 2/1",
			snap.Counter("breaker_sheds"), snap.Counter("breaker_probes"))
	}
}

// A failed probe re-opens the breaker for a fresh cooldown.
func TestBreakerFailedProbeReopens(t *testing.T) {
	clk := vclock.NewVirtual()
	b := NewBreaker(clk, BreakerConfig{FailureThreshold: 1, Cooldown: 10 * ms})
	b.Observe(errors.New("x"))
	advance(clk, 10*ms)
	if admit, probe := b.Allow(); !admit || !probe {
		t.Fatal("probe not admitted after cooldown")
	}
	b.Observe(errors.New("still broken"))
	if b.State() != Open {
		t.Fatalf("state %v after failed probe, want open", b.State())
	}
	if admit, _ := b.Allow(); admit {
		t.Fatal("admitted during the post-probe cooldown")
	}
	advance(clk, 10*ms)
	if admit, probe := b.Allow(); !admit || !probe {
		t.Fatal("no fresh probe after second cooldown")
	}
	b.Observe(nil)
	if b.State() != Closed {
		t.Fatalf("state %v, want closed", b.State())
	}
}

// ProbeSuccesses > 1 requires a run of good probes before closing.
func TestBreakerMultiProbeRecovery(t *testing.T) {
	clk := vclock.NewVirtual()
	b := NewBreaker(clk, BreakerConfig{
		FailureThreshold: 1,
		Cooldown:         10 * ms,
		ProbeSuccesses:   2,
	})
	b.Observe(errors.New("x"))
	advance(clk, 10*ms)
	for i := 0; i < 2; i++ {
		admit, probe := b.Allow()
		if !admit || !probe {
			t.Fatalf("probe %d not admitted", i)
		}
		if i == 0 {
			if b.State() != HalfOpen {
				t.Fatalf("state %v mid-recovery, want half-open", b.State())
			}
		}
		b.Observe(nil)
	}
	if b.State() != Closed {
		t.Fatalf("state %v after 2 good probes, want closed", b.State())
	}
}

// advance moves a virtual clock forward by scheduling an empty event —
// time advances when the clock has no busy holds.
func advance(clk *vclock.VirtualClock, d vclock.Duration) {
	done := make(chan struct{})
	clk.After(d, func() { close(done) })
	<-done
}
