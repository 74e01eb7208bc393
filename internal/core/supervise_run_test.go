package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"hybrid/internal/vclock"
)

// Each application of a Supervise value counts its own restarts from 1,
// and a retained application counts from 1 again when it is re-forced
// after its run ended: two forked children, and RepeatN's cached body
// re-forced for a second round, each read run numbers 1, 2. The count is
// reset at both ends of a run — give-up, and success after restarts.
func TestSuperviseRunCountPerApplication(t *testing.T) {
	clk := vclock.NewVirtual()
	rt := NewRuntime(Options{Workers: 1, Clock: clk})
	defer rt.Shutdown()

	var mu sync.Mutex
	var runs []int
	record := func(run int, _ error) { mu.Lock(); runs = append(runs, run); mu.Unlock() }
	take := func() []int {
		mu.Lock()
		defer mu.Unlock()
		got := runs
		runs = nil
		return got
	}

	gaveUp := Supervise(clk, RestartPolicy{
		MaxRestarts: 2,
		OnRestart:   record,
		OnGiveUp:    func(error) {},
	}, Throw[Unit](errors.New("x")))
	rt.Run(Seq(Fork(gaveUp), Fork(gaveUp)))
	forked := take()
	sort.Ints(forked) // the children's backoff sleeps interleave them
	if got := fmt.Sprint(forked); got != "[1 1 2 2]" {
		t.Fatalf("two forked applications: restart runs %s, want 1, 2 each", got)
	}
	rt.Run(RepeatN(2, gaveUp))
	if got := fmt.Sprint(take()); got != "[1 2 1 2]" {
		t.Fatalf("RepeatN re-forcing one application: restart runs %s, want [1 2 1 2]", got)
	}

	// Fails every other try, so each round restarts once and succeeds.
	tries := 0
	recovers := Supervise(clk, RestartPolicy{MaxRestarts: 2, OnRestart: record},
		NBIOe(func() (Unit, error) {
			if tries++; tries%2 == 1 {
				return Unit{}, errors.New("odd try")
			}
			return Unit{}, nil
		}))
	rt.Run(RepeatN(2, recovers))
	if got := fmt.Sprint(take()); got != "[1 1]" {
		t.Fatalf("RepeatN over a recovering body: restart runs %s, want [1 1]", got)
	}
	if errs := rt.UncaughtErrors(); len(errs) != 0 {
		t.Fatalf("uncaught: %v", errs)
	}

	// Children forked onto two workers restart in parallel; each counts
	// only its own runs, so there is nothing for them to share (and race
	// on).
	wall := vclock.NewReal()
	smp := NewRuntime(Options{Workers: 2, Clock: wall})
	defer smp.Shutdown()
	parallel := Supervise(wall, RestartPolicy{
		MaxRestarts: 2,
		OnRestart:   record,
		OnGiveUp:    func(error) {},
	}, Throw[Unit](errors.New("x")))
	smp.Run(Seq(Fork(parallel), Fork(parallel), Fork(parallel), Fork(parallel)))
	forked = take()
	sort.Ints(forked)
	if got := fmt.Sprint(forked); got != "[1 1 1 1 2 2 2 2]" {
		t.Fatalf("four children on two workers: restart runs %s, want 1, 2 each", got)
	}
}
