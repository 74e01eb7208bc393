package httpd

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"hybrid/internal/core"
	"hybrid/internal/kernel"
	"hybrid/internal/overload"
	"hybrid/internal/vclock"
)

// OverloadConfig turns on the server's overload machinery: listener-side
// admission control, circuit-broken load shedding on the disk path,
// per-connection supervision, and graceful drain. Nil (the default)
// leaves every request's trace shape byte-identical to the plain server.
type OverloadConfig struct {
	// MaxConns bounds in-flight connections: the accept loop stops
	// accepting (parking on the limiter) once this many connections are
	// being served, so the kernel backlog fills and further connects are
	// refused with a counted ECONNREFUSED instead of melting the ready
	// queue. 0 means unbounded.
	MaxConns int
	// AcceptRate, when > 0, paces accepts with a token bucket at this
	// many connections per second (AcceptBurst deep, default 1).
	AcceptRate  float64
	AcceptBurst int
	// Backlog, when > 0, overrides the listen backlog (plain servers use
	// 1024). Overloaded servers want it small: a connection the server
	// cannot serve soon is better refused — the client can back off —
	// than parked holding an unanswered request.
	Backlog int
	// Breaker, when non-nil, wraps the blocking-disk request path in a
	// circuit breaker: when it trips, uncached GETs are shed with an
	// immediate 503 while cached requests keep flowing.
	Breaker *overload.BreakerConfig
	// SuperviseConns isolates per-connection panics with core.Supervise:
	// a poisoned handler thread is counted and its connection closed,
	// instead of the panic reaching the runtime's uncaught-error path.
	// Requires core.Options.TrapPanics on the runtime.
	SuperviseConns bool
}

// drainPoll is how often Drain re-checks the connection table (on the
// virtual clock this is simulation time).
const drainPoll = time.Millisecond

// overloadState is everything the overload machinery hangs off Server.
type overloadState struct {
	cfg     OverloadConfig    // the caller's struct, copied at NewServer
	limiter *overload.Limiter // nil unless MaxConns or AcceptRate set
	breaker *overload.Breaker // nil unless cfg.Breaker set

	mu       sync.Mutex
	conns    map[uint64]Transport // in-flight connections, for Drain
	nextConn uint64
	lfd      kernel.FD
	haveLFD  bool

	draining    atomic.Bool
	drainForced atomic.Bool
}

func newOverloadState(clk vclock.Clock, cfg *OverloadConfig) *overloadState {
	o := &overloadState{cfg: *cfg, conns: make(map[uint64]Transport)}
	if cfg.MaxConns > 0 || cfg.AcceptRate > 0 {
		o.limiter = overload.NewLimiter(clk, overload.LimiterConfig{
			MaxInflight: cfg.MaxConns,
			Rate:        cfg.AcceptRate,
			Burst:       cfg.AcceptBurst,
		})
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

// acquireSlot blocks in the accept loop until admission allows one more
// connection. No-op when admission is unconfigured.
func (s *Server) acquireSlot() core.M[core.Unit] {
	if s.ovl.limiter == nil {
		return core.Skip
	}
	return s.ovl.limiter.Acquire()
}

func (s *Server) releaseSlot() {
	if s.ovl.limiter != nil {
		s.ovl.limiter.Release()
	}
}

// serveAdmitted is the overload-mode connection wrapper: the transport is
// registered for Drain, the admission slot rides an Ensure frame (so a
// panicking handler still gives it back), and — when configured — the
// whole connection is supervised so a panic is an accounted event, not an
// uncaught error.
func (s *Server) serveAdmitted(t Transport) core.M[core.Unit] {
	o := s.ovl
	o.mu.Lock()
	o.nextConn++
	id := o.nextConn
	o.mu.Unlock()

	body := core.Then(
		core.Do(func() {
			o.mu.Lock()
			o.conns[id] = t
			o.mu.Unlock()
		}),
		s.ServeTransport(t),
	)
	body = core.Ensure(func() {
		o.mu.Lock()
		delete(o.conns, id)
		o.mu.Unlock()
		s.releaseSlot()
	}, body)
	if !o.cfg.SuperviseConns {
		return body
	}
	// Connections hold client state that a restart cannot recover, so the
	// policy is pure isolation: zero restarts, failures counted, the
	// transport closed best-effort.
	return core.Supervise(s.io.Clock(), core.RestartPolicy{
		MaxRestarts: 0,
		OnGiveUp:    func(error) { s.connPanics.Add(1) },
	}, body)
}

// shedDisk decides one uncached GET's fate under the breaker. Called at
// request-service time.
func (s *Server) shedDisk() (admit, probe bool) {
	if s.ovl == nil || s.ovl.breaker == nil {
		return true, false
	}
	admit, probe = s.ovl.breaker.Allow()
	if !admit {
		s.shedFast.Add(1)
	}
	return admit, probe
}

// observeDisk wraps the disk-path response with the breaker's outcome
// observation: latency is measured on the server's clock, and an
// exception is a failure (re-raised unchanged).
func (s *Server) observeDisk(m core.M[bool]) core.M[bool] {
	b := s.ovl.breaker
	clk := s.io.Clock()
	return core.Bind(core.NBIO(clk.Now), func(start vclock.Time) core.M[bool] {
		return core.Bind(
			core.Catch(m, func(err error) core.M[bool] {
				b.Observe(vclock.Duration(clk.Now()-start), err)
				return core.Throw[bool](err)
			}),
			func(keep bool) core.M[bool] {
				b.Observe(vclock.Duration(clk.Now()-start), nil)
				return core.Return(keep)
			},
		)
	})
}

// Draining reports whether Drain has begun (new connections are refused
// once the listener closes).
func (s *Server) Draining() bool { return s.ovl != nil && s.ovl.draining.Load() }

// Drain gracefully stops an overload-mode server: it closes the
// listener (ending the accept loop), waits up to deadline for in-flight
// connections to finish, then force-closes the stragglers' transports
// and waits for their handler threads to unwind. After Drain completes
// the runtime holds no server threads, so Runtime.Shutdown is clean.
// Only available when ServerConfig.Overload is set.
func (s *Server) Drain(deadline vclock.Duration) core.M[core.Unit] {
	o := s.ovl
	if o == nil {
		return core.Throw[core.Unit](errors.New("httpd: Drain requires ServerConfig.Overload"))
	}
	clk := s.io.Clock()

	type lfdInfo struct {
		fd kernel.FD
		ok bool
	}
	closeListener := core.Bind(core.NBIO(func() lfdInfo {
		o.draining.Store(true)
		o.mu.Lock()
		defer o.mu.Unlock()
		return lfdInfo{o.lfd, o.haveLFD}
	}), func(l lfdInfo) core.M[core.Unit] {
		if !l.ok {
			return core.Skip
		}
		return core.Catch(s.io.CloseFD(l.fd), func(error) core.M[core.Unit] { return core.Skip })
	})

	// Poll the connection table on the clock; the loop also exits when
	// the force phase begins, so an abandoned waiter (Timeout does not
	// cancel the loser) cannot spin forever.
	var wait func() core.M[core.Unit]
	wait = func() core.M[core.Unit] {
		return core.Bind(core.NBIO(func() int {
			o.mu.Lock()
			defer o.mu.Unlock()
			return len(o.conns)
		}), func(n int) core.M[core.Unit] {
			if n == 0 || o.drainForced.Load() {
				return core.Skip
			}
			return core.Bind(core.Sleep(clk, drainPoll),
				func(core.Unit) core.M[core.Unit] { return wait() })
		})
	}

	forceClose := core.Bind(core.NBIO(func() []Transport {
		o.drainForced.Store(true)
		o.mu.Lock()
		defer o.mu.Unlock()
		ts := make([]Transport, 0, len(o.conns))
		for _, t := range o.conns {
			ts = append(ts, t)
		}
		return ts
	}), func(ts []Transport) core.M[core.Unit] {
		closeAll := core.Skip
		for _, t := range ts {
			t := t
			s.forcedCloses.Add(1)
			closeAll = core.Then(closeAll,
				core.Catch(core.Then(t.Close(), core.Skip),
					func(error) core.M[core.Unit] { return core.Skip }))
		}
		// The closed transports fail their handlers' pending I/O; wait
		// for the table to empty (drainForced keeps this loop bounded to
		// the handlers' unwind time).
		var settle func() core.M[core.Unit]
		settle = func() core.M[core.Unit] {
			return core.Bind(core.NBIO(func() int {
				o.mu.Lock()
				defer o.mu.Unlock()
				return len(o.conns)
			}), func(n int) core.M[core.Unit] {
				if n == 0 {
					return core.Skip
				}
				return core.Bind(core.Sleep(clk, drainPoll),
					func(core.Unit) core.M[core.Unit] { return settle() })
			})
		}
		return core.Then(closeAll, settle())
	})

	return core.Then(closeListener,
		core.Bind(core.NBIO(func() vclock.Time { return clk.Now() + vclock.Time(deadline) }),
			func(dl vclock.Time) core.M[core.Unit] {
				return core.Catch(
					core.WithDeadline(clk, dl, wait()),
					func(err error) core.M[core.Unit] {
						if !errors.Is(err, core.ErrTimedOut) {
							return core.Throw[core.Unit](err)
						}
						return forceClose
					},
				)
			}))
}
