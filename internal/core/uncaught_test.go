package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// TestUncaughtConcurrentPanicsSurfaceOnce: many threads across several
// workers all panic "simultaneously" (released by a shared gate); every
// one must appear in UncaughtErrors exactly once, in spawn order —
// regardless of which worker reported first.
func TestUncaughtConcurrentPanicsSurfaceOnce(t *testing.T) {
	const n = 64
	rt := NewRuntime(Options{Workers: 4, TrapPanics: true})
	defer rt.Shutdown()
	gate := make(chan struct{})
	for i := 0; i < n; i++ {
		i := i
		rt.Spawn(Then(
			Blio(func() Unit { <-gate; return Unit{} }), // hold all threads at the gate
			NBIO(func() Unit { panic(fmt.Sprintf("boom-%d", i)) }),
		))
	}
	close(gate)
	rt.WaitIdle()

	errs := rt.UncaughtErrors()
	if len(errs) != n {
		t.Fatalf("got %d uncaught errors, want %d: %v", len(errs), n, errs)
	}
	// Exactly-once: every boom-i present, none twice.
	seen := make(map[string]int, n)
	for _, err := range errs {
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("unexpected error type %T: %v", err, err)
		}
		seen[pe.Value.(string)]++
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("boom-%d", i)
		if seen[key] != 1 {
			t.Fatalf("%s surfaced %d times, want exactly once", key, seen[key])
		}
	}
	// Deterministic order: thread ids are assigned in spawn order, so the
	// payload indices must come back ascending.
	last := -1
	for _, err := range errs {
		var pe *PanicError
		errors.As(err, &pe)
		idx, _ := strconv.Atoi(strings.TrimPrefix(pe.Value.(string), "boom-"))
		if idx <= last {
			t.Fatalf("errors not in spawn order: %d after %d", idx, last)
		}
		last = idx
	}
}

// TestUncaughtTwoSimultaneousThrows is the minimal regression shape from
// the issue: two threads throwing at the same instant both surface,
// exactly once each, in spawn order.
func TestUncaughtTwoSimultaneousThrows(t *testing.T) {
	rt := NewRuntime(Options{Workers: 2})
	defer rt.Shutdown()
	gate := make(chan struct{})
	first, second := errors.New("first"), errors.New("second")
	rt.Spawn(Then(Blio(func() Unit { <-gate; return Unit{} }), Throw[Unit](first)))
	rt.Spawn(Then(Blio(func() Unit { <-gate; return Unit{} }), Throw[Unit](second)))
	close(gate)
	rt.WaitIdle()
	errs := rt.UncaughtErrors()
	if len(errs) != 2 {
		t.Fatalf("uncaught = %v, want both throws", errs)
	}
	if !errors.Is(errs[0], first) || !errors.Is(errs[1], second) {
		t.Fatalf("order = [%v, %v], want [first, second]", errs[0], errs[1])
	}
	// Stable across repeated reads.
	again := rt.UncaughtErrors()
	if len(again) != 2 || !errors.Is(again[0], first) || !errors.Is(again[1], second) {
		t.Fatalf("second read differs: %v", again)
	}
}
