package core_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybrid/internal/core"
	"hybrid/internal/vclock"
)

// A virtual clock has one event loop, the runtime's one worker, so a
// second worker is a set-up bug.
func TestVirtualClockRejectsParallelWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRuntime accepted Workers: 2 on a virtual clock")
		}
	}()
	core.NewRuntime(core.Options{Workers: 2, Clock: vclock.NewVirtual()})
}

// A second runtime on one clock would be a second event loop; once the
// first has shut down, the clock takes a new one.
func TestVirtualClockTakesOneRuntimeAtATime(t *testing.T) {
	clk := vclock.NewVirtual()
	rt := core.NewRuntime(core.Options{Clock: clk})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a second runtime bound a clock the first still drives")
			}
		}()
		core.NewRuntime(core.Options{Clock: clk})
	}()
	rt.Shutdown()
	rt = core.NewRuntime(core.Options{Clock: clk})
	rt.Run(core.Sleep(clk, time.Millisecond))
	rt.Shutdown()
	if got := clk.Now(); got != vclock.Time(time.Millisecond) {
		t.Fatalf("Now() = %v after the second runtime's sleep, want 1ms", got)
	}
}

// With a runtime bound, the Exit that releases the clock only wakes the
// worker: the event fires there, not on the releasing goroutine. The
// callback waits for a channel closed once Exit has returned, so an
// event fired inside Exit times out instead.
func TestBoundClockFiresOnWorker(t *testing.T) {
	clk := vclock.NewVirtual()
	rt := core.NewRuntime(core.Options{Clock: clk})
	defer rt.Shutdown()
	exited := make(chan struct{})
	onWorker := make(chan bool, 1)
	clk.Enter()
	rt.Run(core.Skip)                 // the worker has run a thread
	time.Sleep(10 * time.Millisecond) // and is asleep on its dry queue
	clk.After(time.Millisecond, func() {
		select {
		case <-exited:
			onWorker <- true
		case <-time.After(5 * time.Second):
			onWorker <- false
		}
	})
	clk.Exit()
	close(exited)
	if !<-onWorker {
		t.Fatal("the event fired inside Exit, on the host goroutine")
	}
}

// TestBoundClockEnterFreezesNow is vclock's
// TestEnterBlocksAdvanceUnderParallelism with a runtime bound: the
// worker advances now, and once a host Enter returns, Now() must still
// stay frozen until the matching Exit.
func TestBoundClockEnterFreezesNow(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const iters = 2000
	var mismatches atomic.Int64
	for iter := 0; iter < iters; iter++ {
		c := vclock.NewVirtual()
		rt := core.NewRuntime(core.Options{Clock: c})
		c.Enter() // main's hold; its Exit below races the reader's Enter
		for i := 0; i < 64; i++ {
			c.After(time.Duration(i+1)*time.Microsecond, func() {})
		}
		var wg sync.WaitGroup
		wg.Add(2)
		start := make(chan struct{})
		go func() {
			defer wg.Done()
			<-start
			c.Enter()
			a := c.Now()
			for i := 0; i < 50; i++ {
				runtime.Gosched()
				if b := c.Now(); b != a {
					mismatches.Add(1)
					break
				}
			}
			c.Exit()
		}()
		go func() {
			defer wg.Done()
			<-start
			c.Exit()
		}()
		close(start)
		wg.Wait()
		rt.Shutdown() // the worker's last act fires what is left
		if c.Busy() != 0 || c.Pending() != 0 {
			t.Fatalf("iter %d: Busy() = %d, Pending() = %d after Shutdown", iter, c.Busy(), c.Pending())
		}
	}
	if n := mismatches.Load(); n != 0 {
		t.Fatalf("Now() changed under a held Enter in %d/%d iterations", n, iters)
	}
}
