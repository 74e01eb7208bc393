package vclock

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEnterBlocksAdvanceUnderParallelism is the regression test for the
// Exit/Enter hand-off race: in the old lock-free design, the Exit
// 0-transition's advance loop checked busy==0 and then stored the new
// time non-atomically with respect to a concurrent Enter, so an activity
// that had already entered could observe virtual time moving underneath
// it. The invariant under test: once Enter returns, Now() is frozen until
// the matching Exit.
//
// Run with -race and GOMAXPROCS>=4; on the old implementation the
// mismatch fires statistically within a few hundred iterations. The clock
// here is unbound, so it advances on whichever goroutine exits last;
// core's TestBoundClockEnterFreezesNow runs the same ladder with a
// runtime's worker advancing it.
func TestEnterBlocksAdvanceUnderParallelism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const iters = 2000
	var mismatches atomic.Int64
	for iter := 0; iter < iters; iter++ {
		c := NewVirtual()
		c.Enter() // main's hold; its Exit below races the reader's Enter
		// A ladder of pending events: each advance step re-checks the busy
		// count, so more events widen the race window on the old code.
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
		// Drain: whoever exited last advanced through any remaining events.
		if c.Busy() != 0 {
			t.Fatalf("iter %d: Busy() = %d after both exits", iter, c.Busy())
		}
	}
	if n := mismatches.Load(); n != 0 {
		t.Fatalf("Now() changed under a held Enter in %d/%d iterations", n, iters)
	}
}
