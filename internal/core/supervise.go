package core

import (
	"hybrid/internal/vclock"
)

// This file adds thread supervision in the spirit of Erlang/OTP's
// one-for-one supervisors, built from the repository's own combinators:
// Catch for fault capture, RetryIf/Backoff for bounded restart schedules.
// The paper's threads die silently when an exception reaches the top
// (§3.3); a server built from thousands of per-client threads wants the
// opposite default — a poisoned thread is isolated, its failure recorded,
// and, for worker-style threads, the body restarted from scratch.
//
// Panic isolation is split between two layers: Supervise sees panics as
// *PanicError exceptions, which exist only when the runtime runs with
// Options.TrapPanics — without it a Go panic never becomes monadic. Turn
// TrapPanics on wherever supervision is in use.

// RestartPolicy bounds how a supervised thread is restarted. The zero
// value never restarts: the body runs once and any failure goes to
// OnGiveUp (or propagates).
type RestartPolicy struct {
	// MaxRestarts is how many times the body is restarted after its first
	// failure (total runs = MaxRestarts + 1). Zero means no restarts.
	MaxRestarts int
	// Backoff schedules the delay between restarts; its Attempts field is
	// ignored (MaxRestarts governs).
	Backoff Backoff
	// OnRestart, when non-nil, observes each restart decision (the error
	// that killed run number run, 1-based) — a hook for counters.
	OnRestart func(run int, err error)
	// OnGiveUp, when non-nil, consumes the final failure after the restart
	// budget is exhausted and the supervised thread ends cleanly. Nil
	// re-raises the failure, so an enclosing supervisor — or the runtime's
	// uncaught-exception record — sees it.
	OnGiveUp func(err error)
}

// Supervise runs body under the policy: every failure (an exception, or a
// panic when the runtime traps them) restarts the body up to p.MaxRestarts
// times with p.Backoff between runs; when the budget is exhausted the
// failure goes to p.OnGiveUp instead of tearing anything down.
// Restarting re-runs body from the start, so body must own re-acquirable
// resources (or release them with Ensure/Finally on its failure path).
//
// One-for-one supervision of a thread pool is Fork(Supervise(...)) per
// child: each child's failures restart only that child.
func Supervise(clk vclock.Clock, p RestartPolicy, body M[Unit]) M[Unit] {
	if p.MaxRestarts < 0 {
		p.MaxRestarts = 0
	}
	bo := p.Backoff
	bo.Attempts = p.MaxRestarts + 1
	var run int // touched only from this thread's trace, in order
	restartable := func(err error) bool {
		run++
		if p.OnRestart != nil {
			p.OnRestart(run, err)
		}
		return true
	}
	supervised := RetryIf(clk, bo, restartable, body)
	return Catch(supervised, func(err error) M[Unit] {
		if p.OnGiveUp == nil {
			return Throw[Unit](err)
		}
		return Do(func() { p.OnGiveUp(err) })
	})
}
