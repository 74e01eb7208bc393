package core

import (
	"hybrid/internal/vclock"
)

// This file adds the recovery combinators the paper's exception story
// (§3.3) implies but never spells out: bounded retry with backoff, built
// from Catch and Sleep — ordinary monadic code, no new trace nodes. They
// are the thread-side answer to the fault-injection layer: a simulated
// kernel that can say EINTR needs servers that can absorb it.

// Backoff describes a bounded retry schedule. The zero value means "one
// extra attempt, immediately"; withDefaults fills the rest.
type Backoff struct {
	// Attempts is the total number of tries, including the first.
	// Values below 1 read as 1 (no retry).
	Attempts int
	// Base is the sleep before the first retry.
	Base vclock.Duration
	// Factor multiplies the delay after each failure (values below 1
	// read as 1: constant backoff).
	Factor float64
	// Max caps the delay; 0 means uncapped.
	Max vclock.Duration
}

func (b Backoff) withDefaults() Backoff {
	if b.Attempts < 1 {
		b.Attempts = 1
	}
	if b.Factor < 1 {
		b.Factor = 1
	}
	return b
}

// delay reports the sleep before retry number try (1-based: the sleep
// after the try-th failure).
func (b Backoff) delay(try int) vclock.Duration {
	d := float64(b.Base)
	for i := 1; i < try; i++ {
		d *= b.Factor
		if b.Max > 0 && d > float64(b.Max) {
			return b.Max
		}
	}
	if b.Max > 0 && d > float64(b.Max) {
		return b.Max
	}
	return vclock.Duration(d)
}

// RetryIf runs m, and on an exception for which retryable returns true,
// sleeps per the backoff schedule and runs it again, up to b.Attempts
// total tries. The last failure (or the first non-retryable one)
// propagates unchanged. A nil retryable retries every exception.
//
// M values are recipes, not futures — re-running m re-executes it from
// the start — so m must be safe to repeat (idempotent reads, or writes
// the layer above can deduplicate).
func RetryIf[A any](clk vclock.Clock, b Backoff, retryable func(error) bool, m M[A]) M[A] {
	b = b.withDefaults()
	var attempt func(try int) M[A]
	attempt = func(try int) M[A] {
		if try >= b.Attempts {
			return m // last try: let any exception propagate
		}
		return Catch(m, func(err error) M[A] {
			if retryable != nil && !retryable(err) {
				return Throw[A](err)
			}
			return Then(Sleep(clk, b.delay(try)), attempt(try+1))
		})
	}
	return attempt(1)
}

// Retry is RetryIf with every exception considered retryable.
func Retry[A any](clk vclock.Clock, b Backoff, m M[A]) M[A] {
	return RetryIf(clk, b, nil, m)
}
