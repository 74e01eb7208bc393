package core

import (
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"hybrid/internal/vclock"
)

// TestRetryPureSuccessIsIdentity is the first retry law: wrapping a
// computation that succeeds changes neither its result nor virtual time.
func TestRetryPureSuccessIsIdentity(t *testing.T) {
	clk := vclock.NewVirtual()
	rt := NewRuntime(Options{Workers: 1, Clock: clk})
	defer rt.Shutdown()
	var got atomic.Int64
	var runs atomic.Int64
	done := make(chan struct{})
	body := NBIO(func() int { runs.Add(1); return 42 })
	rt.Spawn(Bind(
		Retry(clk, Backoff{Attempts: 5, Base: time.Second}, body),
		func(x int) M[Unit] { return Do(func() { got.Store(int64(x)); close(done) }) },
	))
	<-done
	if got.Load() != 42 {
		t.Fatalf("result = %d, want 42", got.Load())
	}
	if runs.Load() != 1 {
		t.Fatalf("body ran %d times, want 1", runs.Load())
	}
	if clk.Now() != 0 {
		t.Fatalf("retry of a success advanced virtual time to %v", clk.Now())
	}
}

// TestRetryBoundedAttempts: a body that always fails runs exactly
// Attempts times and the final error propagates unchanged.
func TestRetryBoundedAttempts(t *testing.T) {
	clk := vclock.NewVirtual()
	rt := NewRuntime(Options{Workers: 1, Clock: clk})
	defer rt.Shutdown()
	boom := errors.New("persistent failure")
	var runs atomic.Int64
	var caught atomic.Value
	done := make(chan struct{})
	body := NBIOe(func() (int, error) { runs.Add(1); return 0, boom })
	rt.Spawn(Catch(
		Then(Retry(clk, Backoff{Attempts: 4, Base: time.Millisecond}, body), Skip),
		func(err error) M[Unit] { return Do(func() { caught.Store(err); close(done) }) },
	))
	<-done
	if runs.Load() != 4 {
		t.Fatalf("body ran %d times, want 4", runs.Load())
	}
	if !errors.Is(caught.Load().(error), boom) {
		t.Fatalf("caught %v, want the body's error", caught.Load())
	}
	// 3 sleeps of 1ms each (constant backoff, Factor defaults to 1).
	if clk.Now() != vclock.Time(3*time.Millisecond) {
		t.Fatalf("virtual time = %v, want 3ms", clk.Now())
	}
}

// TestRetryRecoversMidway: failures followed by a success produce the
// success, with only the failed tries sleeping.
func TestRetryRecoversMidway(t *testing.T) {
	clk := vclock.NewVirtual()
	rt := NewRuntime(Options{Workers: 1, Clock: clk})
	defer rt.Shutdown()
	var runs atomic.Int64
	var got atomic.Int64
	done := make(chan struct{})
	body := NBIOe(func() (int, error) {
		if runs.Add(1) < 3 {
			return 0, errors.New("transient")
		}
		return 7, nil
	})
	rt.Spawn(Bind(
		Retry(clk, Backoff{Attempts: 5, Base: 2 * time.Millisecond}, body),
		func(x int) M[Unit] { return Do(func() { got.Store(int64(x)); close(done) }) },
	))
	<-done
	if got.Load() != 7 || runs.Load() != 3 {
		t.Fatalf("got %d after %d runs", got.Load(), runs.Load())
	}
	if clk.Now() != vclock.Time(4*time.Millisecond) {
		t.Fatalf("virtual time = %v, want 4ms (two 2ms backoffs)", clk.Now())
	}
}

// TestRetryExponentialBackoff: Factor grows the delay, Max caps it, and
// each attempt starts exactly when the schedule says.
func TestRetryExponentialBackoff(t *testing.T) {
	clk := vclock.NewVirtual()
	rt := NewRuntime(Options{Workers: 1, Clock: clk})
	defer rt.Shutdown()
	var at []vclock.Time
	body := NBIOe(func() (int, error) { at = append(at, clk.Now()); return 0, errors.New("nope") })
	done := make(chan struct{})
	rt.Spawn(Catch(
		Then(Retry(clk, Backoff{
			Attempts: 5, Base: time.Millisecond, Factor: 2, Max: 3 * time.Millisecond,
		}, body), Skip),
		func(error) M[Unit] { return Do(func() { close(done) }) },
	))
	<-done
	// Delays: 1ms, 2ms, 3ms (capped), 3ms (capped) = 9ms.
	want := []vclock.Time{0, vclock.Time(time.Millisecond), vclock.Time(3 * time.Millisecond),
		vclock.Time(6 * time.Millisecond), vclock.Time(9 * time.Millisecond)}
	if !slices.Equal(at, want) {
		t.Fatalf("attempts at %v, want %v", at, want)
	}
	if clk.Now() != vclock.Time(9*time.Millisecond) {
		t.Fatalf("virtual time = %v, want 9ms", clk.Now())
	}
	if errs := rt.UncaughtErrors(); len(errs) != 0 {
		t.Fatalf("the caught final failure leaked as uncaught: %v", errs)
	}
}

// TestRetryIfNonRetryableStops: a predicate miss propagates immediately
// with no sleep and no further tries.
func TestRetryIfNonRetryableStops(t *testing.T) {
	clk := vclock.NewVirtual()
	rt := NewRuntime(Options{Workers: 1, Clock: clk})
	defer rt.Shutdown()
	fatal := errors.New("fatal")
	var runs atomic.Int64
	var caught atomic.Value
	done := make(chan struct{})
	body := NBIOe(func() (int, error) { runs.Add(1); return 0, fatal })
	rt.Spawn(Catch(
		Then(RetryIf(clk, Backoff{Attempts: 5, Base: time.Second},
			func(err error) bool { return !errors.Is(err, fatal) }, body), Skip),
		func(err error) M[Unit] { return Do(func() { caught.Store(err); close(done) }) },
	))
	<-done
	if runs.Load() != 1 {
		t.Fatalf("body ran %d times after a non-retryable error", runs.Load())
	}
	if clk.Now() != 0 {
		t.Fatalf("non-retryable error slept: clock at %v", clk.Now())
	}
	if !errors.Is(caught.Load().(error), fatal) {
		t.Fatalf("caught %v", caught.Load())
	}
}

// TestRetryReusableComputation: the same Retry value executed twice
// starts from a fresh attempt count each time.
func TestRetryReusableComputation(t *testing.T) {
	clk := vclock.NewVirtual()
	rt := NewRuntime(Options{Workers: 1, Clock: clk})
	defer rt.Shutdown()
	var calls atomic.Int64
	// Fails on every odd global call: each execution fails once then
	// succeeds on its retry.
	body := NBIOe(func() (int, error) {
		if calls.Add(1)%2 == 1 {
			return 0, errors.New("transient")
		}
		return 9, nil
	})
	m := Retry(clk, Backoff{Attempts: 2, Base: time.Millisecond}, body)
	var got [2]int64
	done := make(chan struct{})
	rt.Spawn(Bind(m, func(x int) M[Unit] {
		return Bind(m, func(y int) M[Unit] {
			return Do(func() { got[0], got[1] = int64(x), int64(y); close(done) })
		})
	}))
	<-done
	if got[0] != 9 || got[1] != 9 {
		t.Fatalf("got %v", got)
	}
	if calls.Load() != 4 {
		t.Fatalf("body ran %d times, want 4 (two executions × fail+retry)", calls.Load())
	}
}
