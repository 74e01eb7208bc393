package core_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"hybrid/internal/core"
	"hybrid/internal/vclock"
)

// TestStressRandomized pounds the scheduler with randomized
// spawn/sleep/channel/exception/shutdown sequences. The seed is logged
// on every run and printed with any failure; replay a failure exactly
// with STRESS_SEED=<seed> go test -run StressRandomized -race ./internal/core/.
func TestStressRandomized(t *testing.T) {
	seed := uint64(time.Now().UnixNano())
	if s := os.Getenv("STRESS_SEED"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			t.Fatalf("bad STRESS_SEED %q: %v", s, err)
		}
		seed = v
	}
	t.Logf("stress seed %d (replay with STRESS_SEED=%d)", seed, seed)
	rng := rand.New(rand.NewSource(int64(seed)))
	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	for round := 0; round < rounds; round++ {
		stressRound(t, rng, seed, round)
		if t.Failed() {
			return
		}
	}
}

// stressClock is the clock of a round with the given worker count: a
// virtual clock runs one worker, so parallel dispatch is stressed on the
// wall clock.
func stressClock(workers int) vclock.Clock {
	if workers > 1 {
		return vclock.NewReal()
	}
	return vclock.NewVirtual()
}

func stressRound(t *testing.T, rng *rand.Rand, seed uint64, round int) {
	fail := func(format string, args ...interface{}) {
		t.Helper()
		t.Fatalf("[seed %d round %d] %s", seed, round, fmt.Sprintf(format, args...))
	}

	workers := 1 + rng.Intn(4)
	clk := stressClock(workers)
	rt := core.NewRuntime(core.Options{
		Workers:    workers,
		BatchSteps: 1 + rng.Intn(64),
		Clock:      clk,
		TrapPanics: true,
	})
	defer rt.Shutdown()

	groups := 2 + rng.Intn(6)
	var produced, consumed, thrown atomic.Uint64
	var sum, want atomic.Int64
	wg := core.NewWaitGroup(groups * 2)

	for g := 0; g < groups; g++ {
		ch := core.NewChan[int](rng.Intn(4)) // rendezvous through small buffers
		items := 1 + rng.Intn(48)
		maySleep := rng.Intn(2) == 0
		mayYield := rng.Intn(2) == 0
		mayThrow := rng.Intn(3) == 0
		// Per-thread RNG streams: monadic threads interleave on workers,
		// so they must not share the test's rand.Rand.
		pseed, cseed := rng.Int63(), rng.Int63()

		producer := func() core.M[core.Unit] {
			r := rand.New(rand.NewSource(pseed))
			return core.ForN(items, func(i int) core.M[core.Unit] {
				want.Add(int64(i))
				step := core.Then(ch.Send(i), core.Do(func() { produced.Add(1) }))
				if maySleep && r.Intn(4) == 0 {
					step = core.Then(core.Sleep(clk, vclock.Duration(1+r.Intn(500))*time.Microsecond), step)
				}
				if mayThrow && r.Intn(8) == 0 {
					// A caught exception inside the loop must not disturb
					// the stream: the item is still sent afterwards.
					thrown.Add(1)
					step = core.Then(
						core.Catch(
							core.Throw[core.Unit](errors.New("stress: injected")),
							func(error) core.M[core.Unit] { return core.Skip },
						),
						step,
					)
				}
				return step
			})
		}
		consumer := func() core.M[core.Unit] {
			r := rand.New(rand.NewSource(cseed))
			return core.ForN(items, func(int) core.M[core.Unit] {
				step := core.Bind(ch.Recv(), func(v int) core.M[core.Unit] {
					consumed.Add(1)
					sum.Add(int64(v))
					return core.Skip
				})
				if mayYield && r.Intn(4) == 0 {
					step = core.Then(core.Yield(), step)
				}
				return step
			})
		}
		rt.Spawn(core.Finally(producer(), wg.Done()))
		rt.Spawn(core.Finally(consumer(), wg.Done()))
	}

	// A few fork bombs on the side: trees of short-lived threads whose
	// leaves all report in.
	forks := rng.Intn(3)
	var leaves atomic.Uint64
	wantLeaves := uint64(0)
	forkWG := core.NewWaitGroup(forks * 8)
	for f := 0; f < forks; f++ {
		wantLeaves += 8
		rt.Spawn(core.ForN(8, func(int) core.M[core.Unit] {
			return core.Fork(core.Finally(
				core.Then(core.Yield(), core.Do(func() { leaves.Add(1) })),
				forkWG.Done(),
			))
		}))
	}

	done := make(chan struct{})
	rt.Spawn(core.Then(core.Then(wg.Wait(), forkWG.Wait()), core.Do(func() { close(done) })))
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		fail("wedged: %d live threads, %d/%d produced/consumed",
			rt.Live(), produced.Load(), consumed.Load())
	}

	idle := make(chan struct{})
	go func() { rt.WaitIdle(); close(idle) }()
	select {
	case <-idle:
	case <-time.After(30 * time.Second):
		fail("WaitIdle wedged with %d live threads", rt.Live())
	}

	if produced.Load() != consumed.Load() {
		fail("produced %d != consumed %d", produced.Load(), consumed.Load())
	}
	if sum.Load() != want.Load() {
		fail("checksum %d != %d: channel dropped or duplicated a value", sum.Load(), want.Load())
	}
	if leaves.Load() != wantLeaves {
		fail("fork leaves %d != %d", leaves.Load(), wantLeaves)
	}
	if errs := rt.UncaughtErrors(); len(errs) != 0 {
		fail("uncaught errors escaped their Catch: %v", errs)
	}
	// Shutdown with everything drained must be clean and idempotent.
	rt.Shutdown()
	rt.Shutdown()
}

// TestStressShutdownMidFlight repeatedly shuts a runtime down while
// threads are still being spawned and parked: no panic, no wedge, and
// the clock's busy count must return to zero so time can move on.
func TestStressShutdownMidFlight(t *testing.T) {
	seed := uint64(time.Now().UnixNano())
	if s := os.Getenv("STRESS_SEED"); s != "" {
		if v, err := strconv.ParseUint(s, 10, 64); err == nil {
			seed = v
		}
	}
	t.Logf("stress seed %d", seed)
	rng := rand.New(rand.NewSource(int64(seed)))
	rounds := 8
	if testing.Short() {
		rounds = 3
	}
	for round := 0; round < rounds; round++ {
		workers := 1 + rng.Intn(4)
		clk := stressClock(workers)
		rt := core.NewRuntime(core.Options{Workers: workers, Clock: clk})
		n := 16 + rng.Intn(128)
		for i := 0; i < n; i++ {
			d := vclock.Duration(rng.Intn(2000)) * time.Microsecond
			rt.Spawn(core.Then(core.Sleep(clk, d), core.Yield()))
		}
		// Shut down somewhere in the middle of the storm.
		if rng.Intn(2) == 0 {
			time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
		}
		rt.Shutdown()
		// The clock must not be left busy by discarded threads: a held
		// busy count would freeze virtual time for any later user.
		vc, ok := clk.(*vclock.VirtualClock)
		if !ok {
			continue
		}
		idle := make(chan struct{})
		go func() {
			for vc.Busy() != 0 {
				time.Sleep(50 * time.Microsecond)
			}
			close(idle)
		}()
		select {
		case <-idle:
		case <-time.After(30 * time.Second):
			t.Fatalf("[seed %d round %d] clock busy=%d after Shutdown", seed, round, vc.Busy())
		}
	}
}
