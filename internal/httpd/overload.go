package httpd

import (
	"errors"

	"hybrid/internal/core"
	"hybrid/internal/overload"
	"hybrid/internal/vclock"
)

// OverloadConfig turns on the server's overload machinery: listener-side
// admission control and circuit-broken load shedding on the disk path.
// Nil (the default) leaves every request's trace shape byte-identical to
// the plain server.
type OverloadConfig struct {
	// MaxConns bounds in-flight connections: the accept loop stops
	// accepting (parking on the limiter) once this many connections are
	// being served, so the kernel backlog fills and further connects are
	// refused with a counted ECONNREFUSED instead of melting the ready
	// queue. 0 means unbounded.
	MaxConns int
	// Backlog, when > 0, overrides the listen backlog (plain servers use
	// 1024). Overloaded servers want it small: a connection the server
	// cannot serve soon is better refused — the client can back off —
	// than parked holding an unanswered request.
	Backlog int
	// Breaker, when non-nil, wraps the blocking-disk request path in a
	// circuit breaker: when it trips, uncached GETs are shed with an
	// immediate 503 while cached requests keep flowing.
	Breaker *overload.BreakerConfig
}

// overloadState is everything the overload machinery hangs off Server.
type overloadState struct {
	backlog int
	limiter *overload.Limiter // nil unless MaxConns set
	breaker *overload.Breaker // nil unless cfg.Breaker set
}

func newOverloadState(clk vclock.Clock, cfg *OverloadConfig) *overloadState {
	o := &overloadState{backlog: cfg.Backlog}
	if cfg.MaxConns > 0 {
		o.limiter = overload.NewLimiter(overload.LimiterConfig{MaxInflight: cfg.MaxConns})
	}
	if cfg.Breaker != nil {
		o.breaker = overload.NewBreaker(clk, *cfg.Breaker)
	}
	return o
}

// Limiter exposes the admission limiter (nil when admission is off) so
// benchmarks can merge its metrics.
func (s *Server) Limiter() *overload.Limiter {
	if s.ovl == nil {
		return nil
	}
	return s.ovl.limiter
}

// Breaker exposes the disk-path breaker (nil when off).
func (s *Server) Breaker() *overload.Breaker {
	if s.ovl == nil {
		return nil
	}
	return s.ovl.breaker
}

// errDiskDead marks a degraded 503 to the breaker: the response went out
// and the connection ends cleanly, but the disk path failed — were it
// booked as a success, a dead disk could never open the breaker.
var errDiskDead = errors.New("httpd: file unreadable after retries")

// observeDisk wraps the disk-path response with the breaker's outcome
// observation, one per request: an exception is a failure — re-raised
// unchanged, except a degraded 503, which was already answered and only
// closes.
func (s *Server) observeDisk(m core.M[bool]) core.M[bool] {
	b := s.ovl.breaker
	return core.Catch(
		core.Bind(m, func(keep bool) core.M[bool] {
			b.Observe(nil)
			return core.Return(keep)
		}),
		func(err error) core.M[bool] {
			b.Observe(err)
			if err == errDiskDead {
				return core.Return(false)
			}
			return core.Throw[bool](err)
		},
	)
}
