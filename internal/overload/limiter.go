// Package overload implements the admission-control and load-shedding
// primitives that keep the paper's thread-per-connection servers stable
// past saturation. The paper's evaluation (§5, Figures 17–19) measures
// throughput up to the knee of the load curve; this package is about what
// happens *after* the knee, where unbounded accept loops grow the ready
// queue without bound and every request's latency diverges.
//
// Two mechanisms, both deterministic under the virtual clock:
//
//   - Limiter gates the accept loop with a bound on in-flight
//     connections. When the limiter blocks, the listener's kernel backlog
//     fills, and further connects are refused by the kernel with a
//     counted ECONNREFUSED — back-pressure reaches the client instead of
//     growing server queues.
//
//   - Breaker wraps a high-cost request path (the blocking-disk path in
//     httpd) with a circuit breaker: consecutive failures or slow
//     responses trip it, tripped requests are shed immediately with a
//     cheap error response, and half-open probes detect recovery.
//
// Everything here is monadic-thread-safe in the same style as core's
// primitives: a plain mutex guards state, never held across a blocking
// point, with parked resume functions dispatched FIFO.
package overload

import (
	"sync"

	"hybrid/internal/core"
	"hybrid/internal/stats"
)

// LimiterConfig bounds admission.
type LimiterConfig struct {
	// MaxInflight is the maximum number of acquired-but-unreleased slots
	// (in-flight connections). 0 means unlimited.
	MaxInflight int
}

// Limiter is the listener-side admission gate: a FIFO in-flight bound.
type Limiter struct {
	max int

	mu       sync.Mutex
	inflight int
	waiters  []func(core.Unit)

	reg      *stats.Registry
	admitted *stats.Counter
	gauge    *stats.Gauge
}

// NewLimiter creates a limiter.
func NewLimiter(cfg LimiterConfig) *Limiter {
	l := &Limiter{max: cfg.MaxInflight, reg: stats.NewRegistry()}
	l.admitted = l.reg.Counter("admitted")
	l.gauge = l.reg.Gauge("inflight")
	l.reg.GaugeFunc("accept_waiters", func() int64 {
		l.mu.Lock()
		defer l.mu.Unlock()
		return int64(len(l.waiters))
	})
	return l
}

// Metrics exposes the limiter's registry (admitted, inflight,
// accept_waiters).
func (l *Limiter) Metrics() *stats.Registry { return l.reg }

// Acquire admits the calling thread, blocking until an in-flight slot is
// free. Pair every successful Acquire with exactly one Release — with
// core.Ensure, so a dying connection thread still gives its slot back.
func (l *Limiter) Acquire() core.M[core.Unit] {
	return core.Suspend(func(resume func(core.Unit)) {
		l.mu.Lock()
		if l.max <= 0 || l.inflight < l.max {
			l.inflight++
			l.mu.Unlock()
			l.admitted.Inc()
			l.gauge.Add(1)
			resume(core.Unit{})
			return
		}
		l.waiters = append(l.waiters, resume)
		l.mu.Unlock()
	})
}

// TryAcquire admits without blocking: it takes a slot only if one is
// immediately available, reporting whether it did.
func (l *Limiter) TryAcquire() bool {
	l.mu.Lock()
	if l.max > 0 && l.inflight >= l.max {
		l.mu.Unlock()
		return false
	}
	l.inflight++
	l.mu.Unlock()
	l.admitted.Inc()
	l.gauge.Add(1)
	return true
}

// Release returns an in-flight slot, waking the oldest blocked acquirer.
// It is a plain function so it can run on the runtime's abort path as a
// core.Ensure cleanup.
func (l *Limiter) Release() {
	l.mu.Lock()
	if len(l.waiters) > 0 {
		next := l.waiters[0]
		l.waiters = l.waiters[1:]
		l.mu.Unlock()
		// The slot transfers: inflight stays constant.
		l.admitted.Inc()
		next(core.Unit{})
		return
	}
	l.inflight--
	l.mu.Unlock()
	l.gauge.Add(-1)
}

// Inflight reports the current number of held slots.
func (l *Limiter) Inflight() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inflight
}
