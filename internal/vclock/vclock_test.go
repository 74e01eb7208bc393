package vclock

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestVirtualStartsAtZero(t *testing.T) {
	c := NewVirtual()
	if got := c.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
}

func TestVirtualAdvancesToEvent(t *testing.T) {
	c := NewVirtual()
	fired := false
	c.After(5*time.Millisecond, func() { fired = true })
	if !fired {
		t.Fatal("event did not fire on quiescent clock")
	}
	if got := c.Now(); got != Time(5*time.Millisecond) {
		t.Fatalf("Now() = %v, want 5ms", got)
	}
}

func TestVirtualDoesNotAdvanceWhileBusy(t *testing.T) {
	c := NewVirtual()
	c.Enter()
	fired := false
	c.After(time.Millisecond, func() { fired = true })
	if fired {
		t.Fatal("event fired while busy")
	}
	c.Exit()
	if !fired {
		t.Fatal("event did not fire after Exit")
	}
}

func TestVirtualEventOrder(t *testing.T) {
	c := NewVirtual()
	c.Enter()
	var order []int
	c.After(3*time.Millisecond, func() { order = append(order, 3) })
	c.After(1*time.Millisecond, func() { order = append(order, 1) })
	c.After(2*time.Millisecond, func() { order = append(order, 2) })
	c.Exit()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired in order %v, want [1 2 3]", order)
	}
}

func TestVirtualSimultaneousEventsFIFO(t *testing.T) {
	c := NewVirtual()
	c.Enter()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.After(time.Millisecond, func() { order = append(order, i) })
	}
	c.Exit()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events fired out of scheduling order: %v", order)
		}
	}
}

func TestVirtualNestedScheduling(t *testing.T) {
	c := NewVirtual()
	c.Enter()
	var times []Time
	c.After(time.Millisecond, func() {
		times = append(times, c.Now())
		c.After(time.Millisecond, func() {
			times = append(times, c.Now())
		})
	})
	c.Exit()
	if len(times) != 2 {
		t.Fatalf("got %d events, want 2", len(times))
	}
	if times[0] != Time(time.Millisecond) || times[1] != Time(2*time.Millisecond) {
		t.Fatalf("event times = %v, want [1ms 2ms]", times)
	}
}

func TestVirtualCallbackTransfersHold(t *testing.T) {
	// A callback wakes a "thread": it Enters on the thread's behalf before
	// returning, and the second event must not fire until the thread Exits.
	c := NewVirtual()
	c.Enter()
	secondFired := false
	c.After(2*time.Millisecond, func() { secondFired = true })
	woke := false
	c.After(time.Millisecond, func() {
		woke = true
		c.Enter() // transfer to the woken thread
	})
	c.Exit() // quiesce: fires the 1ms event, which leaves busy=1
	if !woke {
		t.Fatal("wake event did not fire")
	}
	if secondFired {
		t.Fatal("second event fired while transferred hold outstanding")
	}
	c.Exit() // the woken thread quiesces
	if !secondFired {
		t.Fatal("second event did not fire after thread exit")
	}
}

func TestTimerStop(t *testing.T) {
	c := NewVirtual()
	c.Enter()
	fired := false
	tm := c.After(time.Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop returned false for pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	c.Exit()
	if fired {
		t.Fatal("stopped timer fired")
	}
	if c.Pending() != 0 {
		t.Fatalf("Pending() = %d after stop, want 0", c.Pending())
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	c := NewVirtual()
	tm := c.After(0, func() {})
	if tm.Stop() {
		t.Fatal("Stop returned true for fired timer")
	}
}

func TestExitWithoutEnterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewVirtual().Exit()
}

func TestVirtualConcurrentEnterExit(t *testing.T) {
	c := NewVirtual()
	var wg sync.WaitGroup
	total := 0
	var mu sync.Mutex
	c.Enter() // keep clock busy while goroutines race
	for i := 0; i < 32; i++ {
		wg.Add(1)
		c.Enter()
		go func() {
			defer wg.Done()
			c.After(time.Millisecond, func() {
				mu.Lock()
				total++
				mu.Unlock()
			})
			c.Exit()
		}()
	}
	wg.Wait()
	c.Exit()
	mu.Lock()
	defer mu.Unlock()
	if total != 32 {
		t.Fatalf("fired %d events, want 32", total)
	}
}

func TestRealClockNow(t *testing.T) {
	c := NewReal()
	a := c.Now()
	time.Sleep(2 * time.Millisecond)
	b := c.Now()
	if b <= a {
		t.Fatalf("real clock did not advance: %v -> %v", a, b)
	}
}

func TestRealClockAfter(t *testing.T) {
	c := NewReal()
	done := make(chan struct{})
	c.After(time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("real timer did not fire")
	}
}

func TestRealClockTimerStop(t *testing.T) {
	c := NewReal()
	fired := make(chan struct{}, 1)
	tm := c.After(50*time.Millisecond, func() { fired <- struct{}{} })
	if !tm.Stop() {
		t.Fatal("Stop returned false")
	}
	select {
	case <-fired:
		t.Fatal("stopped real timer fired")
	case <-time.After(100 * time.Millisecond):
	}
}

func TestTimeString(t *testing.T) {
	if s := Time(time.Second).String(); s != "t+1s" {
		t.Fatalf("String() = %q", s)
	}
}

// TestOwnedTimerStaleBatchSlot: A and B are both due at T, so one batch
// pops both. A's callback stops B, or re-arms it, before B's slot comes
// up. B must not fire at T: its popped slot is stale. A batch loop that
// tested only whether the timer had left the heap would fire it, since a
// popped timer and a stopped one both sit outside the heap.
func TestOwnedTimerStaleBatchSlot(t *testing.T) {
	for _, tc := range []struct {
		name   string
		act    func(b *Timer)
		wantAt []Time // when B fires
	}{
		{"stop", func(b *Timer) {
			if !b.Stop() {
				t.Error("Stop of a timer due later in the batch reported it fired")
			}
		}, nil},
		{"re-arm", func(b *Timer) { b.Reset(5) }, []Time{15}},
		{"re-arm then stop", func(b *Timer) { b.Reset(5); b.Stop() }, nil},
		{"re-arm now", func(b *Timer) { b.Reset(0) }, []Time{10}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewVirtual()
			c.Enter()
			var bAt []Time
			b := c.NewTimer(func() { bAt = append(bAt, c.Now()) })
			a := c.NewTimer(func() { tc.act(b) })
			a.Reset(10)
			b.Reset(10)
			c.Exit()
			if !slices.Equal(bAt, tc.wantAt) {
				t.Fatalf("B fired at %v, want %v", bAt, tc.wantAt)
			}
			if c.Pending() != 0 {
				t.Fatalf("%d events left pending", c.Pending())
			}
		})
	}
}

// TestOwnedTimerRearmsWithoutAllocating pins the owned timer's point: an
// arm and its firing allocate nothing.
func TestOwnedTimerRearmsWithoutAllocating(t *testing.T) {
	c := NewVirtual()
	n := 0
	tm := c.NewTimer(func() { n++ })
	allocs := testing.AllocsPerRun(100, func() {
		c.Enter()
		tm.Reset(time.Microsecond)
		tm.Stop()
		tm.Reset(time.Millisecond)
		c.Exit()
	})
	if allocs != 0 {
		t.Fatalf("owned timer arm and fire allocate %.1f, want 0", allocs)
	}
	if n != 101 {
		t.Fatalf("fired %d times, want 101", n)
	}
}

// TestRealOwnedTimerResetStop covers the real clock's owned timer: Stop
// before the first Reset cancels nothing, a Reset arms it, a callback can
// re-arm its own timer, and Stop cancels a pending arm.
func TestRealOwnedTimerResetStop(t *testing.T) {
	c := NewReal()
	fires := make(chan int32, 4)
	var n atomic.Int32 // each arm's callback runs on a goroutine of its own
	var tm *Timer
	tm = c.NewTimer(func() {
		k := n.Add(1)
		fires <- k
		if k == 1 {
			tm.Reset(time.Millisecond) // re-arm from inside the callback
		}
	})
	if tm.Stop() {
		t.Fatal("Stop before the first Reset reported a pending arm")
	}
	tm.Reset(time.Millisecond)
	for want := int32(1); want <= 2; want++ {
		select {
		case got := <-fires:
			if got != want {
				t.Fatalf("fire %d reported %d", want, got)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("fire %d never came", want)
		}
	}
	tm.Reset(50 * time.Millisecond)
	if !tm.Stop() {
		t.Fatal("Stop of a pending arm reported none")
	}
	select {
	case <-fires:
		t.Fatal("stopped owned timer fired")
	case <-time.After(100 * time.Millisecond):
	}
}
