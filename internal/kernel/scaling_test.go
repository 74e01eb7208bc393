package kernel

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"hybrid/internal/core"
	"hybrid/internal/vclock"
)

// ---------------------------------------------------------------------------
// Immediate delivery order under host parallelism
// ---------------------------------------------------------------------------

// Watches made ready by clock timers must surface in (when, seq) order
// regardless of host parallelism. Sixty-four watches become ready via
// clock timers, four sharing each virtual timestamp; a one-worker runtime
// is bound to the clock, so its worker pops each timestamp's batch and
// fans it out in seq (registration) order, and each watch records inline.
// A squad of goroutines hammers Enter/Exit at GOMAXPROCS=4 the whole
// time: each zero-transition wakes the worker, and each Enter holds it
// off between batches, so the recorded order must not care.
func TestEpollImmediateDeliveryPreservesEventOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	clk := vclock.NewVirtual()
	k := New(clk)
	rt := core.NewRuntime(core.Options{Clock: clk})
	defer rt.Shutdown()

	const events = 64
	type pipePair struct{ r, w FD }
	pipes := make([]pipePair, events)
	var mu sync.Mutex
	var got []int
	for i := range pipes {
		r, w := k.NewPipe(64)
		pipes[i] = pipePair{r, w}
		i := i
		if err := watchFunc(k, r, EventRead, func(Event) {
			mu.Lock()
			got = append(got, i)
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var churn sync.WaitGroup
	for w := 0; w < 4; w++ {
		churn.Add(1)
		go func() {
			defer churn.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Yield outside the hold: each Exit that drops the count
				// to zero wakes the worker, and the next churner's Enter
				// holds it off again. Yielding inside the hold would let
				// four churners keep the count above zero for good on a
				// host with fewer CPUs than churners.
				clk.Enter()
				clk.Exit()
				runtime.Gosched()
			}
		}()
	}

	// Register all timers under one hold so (when, seq) is fixed by this
	// loop alone; releasing the hold lets the worker start popping.
	clk.Enter()
	for i := 0; i < events; i++ {
		d := time.Duration(i/4+1) * time.Millisecond
		i := i
		clk.After(d, func() {
			if _, err := k.Write(pipes[i].w, []byte("x")); err != nil {
				t.Error(err)
			}
		})
	}
	clk.Exit()

	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == events
	})
	close(stop)
	churn.Wait()

	for i, g := range got {
		if g != i {
			t.Fatalf("delivery order diverged at position %d: got watch %d (full order %v)", i, g, got)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// ---------------------------------------------------------------------------
// FD table sharding
// ---------------------------------------------------------------------------

// Two FDs in different shards must not serialize: with one shard's write
// lock held, I/O on an FD in another shard still completes. Under the old
// single kernel.mu this deadlocks (the read would block on the table
// lock), so the test doubles as a probe that lookups take only their own
// shard's lock.
func TestShardedLookupsDoNotSerialize(t *testing.T) {
	k := newKernel()
	r1, w1 := k.NewPipe(64)
	// Find a second pipe whose FDs land in different shards from r1's.
	var r2, w2 FD
	for {
		r2, w2 = k.NewPipe(64)
		if k.shard(r2) != k.shard(r1) && k.shard(w2) != k.shard(r1) {
			break
		}
	}
	_ = w1

	// Hold r1's shard exclusively, as Close would.
	sh := k.shard(r1)
	sh.mu.Lock()
	done := make(chan error, 1)
	go func() {
		if _, err := k.Write(w2, []byte("ping")); err != nil {
			done <- err
			return
		}
		buf := make([]byte, 8)
		_, err := k.Read(r2, buf)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("cross-shard I/O failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		sh.mu.Unlock()
		t.Fatal("I/O on a different shard blocked behind a held shard lock")
	}
	sh.mu.Unlock()

	// And the held shard really is exclusive: TryLock must fail.
	if sh.mu.TryLock() {
		sh.mu.Unlock()
	} else {
		t.Fatal("shard lock unexpectedly held after test")
	}
}

// Concurrent I/O on many distinct FDs with -race: the sharded table and
// atomic counters must tolerate full parallelism.
func TestShardedConcurrentIOStress(t *testing.T) {
	k := newKernel()
	const pipes = 64
	type pair struct{ r, w FD }
	ps := make([]pair, pipes)
	for i := range ps {
		r, w := k.NewPipe(256)
		ps[i] = pair{r, w}
	}
	var wg sync.WaitGroup
	for _, p := range ps {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 16)
			for i := 0; i < 200; i++ {
				if _, err := k.Write(p.w, []byte("0123456789abcdef")); err != nil {
					t.Error(err)
					return
				}
				if _, err := k.Read(p.r, buf); err != nil {
					t.Error(err)
					return
				}
			}
			_ = k.Close(p.r)
			_ = k.Close(p.w)
		}()
	}
	wg.Wait()
	if got := k.OpenFDs(); got != 0 {
		t.Fatalf("open FDs after close-all: %d", got)
	}
	st := k.Metrics().Snapshot()
	if st.Counter("reads") != pipes*200 || st.Counter("writes") != pipes*200 {
		t.Fatalf("reads=%d writes=%d, want %d each", st.Counter("reads"), st.Counter("writes"), pipes*200)
	}
}
