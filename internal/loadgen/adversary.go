package loadgen

import (
	"errors"
	"sync/atomic"
	"time"

	"hybrid/internal/core"
	"hybrid/internal/hio"
	"hybrid/internal/kernel"
	"hybrid/internal/vclock"
)

// AttackMode selects one adversarial client behavior. Each mode targets a
// different connection-lifecycle phase, matching one LifecycleConfig
// deadline; against an unhardened server each pins connection slots (and
// the paper's per-thread state) indefinitely.
type AttackMode int

const (
	// AttackSlowloris opens a connection and trickles header bytes, one
	// per Interval, never completing the request head.
	AttackSlowloris AttackMode = iota
	// AttackIdle opens a connection and never sends a byte.
	AttackIdle
	// AttackReadStall pipelines readStallPipeline GETs and never reads the
	// responses, pinning them in the socket buffer until the server's
	// writes stall.
	AttackReadStall
	// AttackChurn opens a connection, sends a request-line fragment, and
	// abandons it (close, reconnect) every Interval — connection-setup
	// pressure rather than slot pinning.
	AttackChurn
)

func (m AttackMode) String() string {
	switch m {
	case AttackSlowloris:
		return "slowloris"
	case AttackIdle:
		return "idle"
	case AttackReadStall:
		return "read-stall"
	case AttackChurn:
		return "churn"
	}
	return "unknown"
}

// AttackConfig parameterizes an adversarial run.
type AttackConfig struct {
	// Addr is the victim's kernel-socket address.
	Addr string
	// Attackers is the number of concurrent hostile client threads.
	Attackers int
	// Mode is the behavior every attacker exhibits.
	Mode AttackMode
	// Seed makes attacker pacing jitter deterministic.
	Seed uint64
	// Interval paces the attack: the byte-trickle period (slowloris),
	// the churn cycle, and the reconnect delay after a shed. Default 5ms.
	Interval vclock.Duration
	// Duration is the virtual-time horizon; attackers wind down once the
	// clock passes start+Duration even if the server never sheds them.
	Duration vclock.Duration
	// Files is the fileset size read-stall GETs draw from. Default 1.
	Files int
}

// readStallPipeline is how many GETs a read-stall attacker sends without
// reading: 128 KB of 16 KB responses — twice the per-direction socket
// buffer, so the victim's write always stalls.
const readStallPipeline = 8

func (c AttackConfig) withDefaults() AttackConfig {
	if c.Interval <= 0 {
		c.Interval = 5 * time.Millisecond
	}
	if c.Files <= 0 {
		c.Files = 1
	}
	return c
}

// Adversary drives hostile client threads and accumulates counters. All
// pacing runs on the virtual clock, so an adversarial run is exactly as
// deterministic as a well-behaved one.
type Adversary struct {
	io  *hio.IO
	cfg AttackConfig

	// Conns counts connections the adversary opened.
	Conns atomic.Uint64
	// Torndown counts connections the victim tore down under the
	// attacker (shed, reap, or reset) — each is one defense firing.
	Torndown atomic.Uint64
	// Sent counts attack bytes that reached the socket.
	Sent atomic.Uint64
}

// NewAdversary creates an adversarial generator over the client-side I/O
// layer.
func NewAdversary(io *hio.IO, cfg AttackConfig) *Adversary {
	return &Adversary{io: io, cfg: cfg.withDefaults()}
}

// Run launches the attacker threads and returns when every one has wound
// down (shed past the horizon, or parked until the horizon expired).
func (a *Adversary) Run() core.M[core.Unit] {
	wg := core.NewWaitGroup(a.cfg.Attackers)
	clk := a.io.Clock()
	return core.Bind(core.NBIO(clk.Now), func(start vclock.Time) core.M[core.Unit] {
		deadline := start + vclock.Time(a.cfg.Duration)
		return core.Then(
			core.ForN(a.cfg.Attackers, func(i int) core.M[core.Unit] {
				return core.Fork(core.Finally(a.attacker(i, deadline), wg.Done()))
			}),
			wg.Wait(),
		)
	})
}

// attacker is one hostile client thread: attack, observe the teardown,
// reconnect, repeat until the horizon.
func (a *Adversary) attacker(id int, deadline vclock.Time) core.M[core.Unit] {
	rng := a.cfg.Seed ^ (uint64(id)+1)*0x9E3779B97F4A7C15
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	clk := a.io.Clock()
	var cycle func() core.M[core.Unit]
	cycle = func() core.M[core.Unit] {
		return core.Bind(core.NBIO(clk.Now), func(now vclock.Time) core.M[core.Unit] {
			if now >= deadline {
				return core.Skip
			}
			one := core.Bind(a.io.SockConnect(a.cfg.Addr), func(fd kernel.FD) core.M[core.Unit] {
				a.Conns.Add(1)
				return core.Finally(a.engage(fd, next, deadline), a.closeQuiet(fd))
			})
			// Any teardown — server shed, reset, refused reconnect — is
			// one observed defense firing; pause, then go again.
			return core.Then(
				core.Catch(one, func(err error) core.M[core.Unit] {
					// Winding down at the horizon is not a defense firing.
					if !errors.Is(err, core.ErrTimedOut) {
						a.Torndown.Add(1)
					}
					return core.Skip
				}),
				core.Then(a.io.Sleep(a.cfg.Interval), cycle()),
			)
		})
	}
	// Stagger attacker starts across one interval so a thousand attackers
	// don't phase-lock.
	jitter := vclock.Duration(next() % uint64(a.cfg.Interval))
	return core.Then(a.io.Sleep(jitter), cycle())
}

// engage runs one connection's worth of hostile behavior. It throws when
// the victim tears the connection down, and returns normally when the
// attacker abandons it (churn) or the horizon passes.
func (a *Adversary) engage(fd kernel.FD, next func() uint64, deadline vclock.Time) core.M[core.Unit] {
	clk := a.io.Clock()
	switch a.cfg.Mode {
	case AttackIdle:
		// Park on a read that only the victim can finish. The horizon
		// bounds it so defense-off runs still terminate.
		return core.WithDeadline(clk, deadline,
			core.Bind(a.io.SockRead(fd, make([]byte, 16)), func(int) core.M[core.Unit] {
				return core.Throw[core.Unit](errTorndown)
			}))

	case AttackSlowloris:
		head := "GET /" + FileName(0) + " HTTP/1.1\r\nHost: loris\r\nX-Pad: "
		var drip func(i int) core.M[core.Unit]
		drip = func(i int) core.M[core.Unit] {
			return core.Bind(core.NBIO(clk.Now), func(now vclock.Time) core.M[core.Unit] {
				if now >= deadline {
					return core.Skip
				}
				b := byte('a')
				if i < len(head) {
					b = head[i]
				}
				return core.Bind(a.io.SockSend(fd, []byte{b}), func(n int) core.M[core.Unit] {
					a.Sent.Add(uint64(n))
					return core.Then(a.io.Sleep(a.cfg.Interval), drip(i+1))
				})
			})
		}
		return drip(0)

	case AttackReadStall:
		// Pipeline enough responses to overflow the socket buffer, then
		// go silent; poke a byte down the pipe each interval so the shed
		// becomes observable as a send failure.
		var reqs []byte
		for i := 0; i < readStallPipeline; i++ {
			name := FileName(int(next() % uint64(a.cfg.Files)))
			reqs = append(reqs, []byte("GET /"+name+" HTTP/1.1\r\nHost: stall\r\nConnection: keep-alive\r\n\r\n")...)
		}
		var lurk func() core.M[core.Unit]
		lurk = func() core.M[core.Unit] {
			return core.Bind(core.NBIO(clk.Now), func(now vclock.Time) core.M[core.Unit] {
				if now >= deadline {
					return core.Skip
				}
				// Poke a byte down the pipe so a shed surfaces as a send
				// failure instead of passing silently.
				return core.Then(a.io.Sleep(a.cfg.Interval),
					core.Bind(a.io.SockSend(fd, []byte{'.'}), func(n int) core.M[core.Unit] {
						a.Sent.Add(uint64(n))
						return lurk()
					}))
			})
		}
		return core.Then(
			core.Bind(a.io.SockSend(fd, reqs), func(n int) core.M[core.Unit] {
				a.Sent.Add(uint64(n))
				return core.Skip
			}),
			lurk(),
		)

	case AttackChurn:
		// A fragment of a request line, then abandon the connection.
		frag := []byte("GET /file-")
		return core.Bind(a.io.SockSend(fd, frag), func(n int) core.M[core.Unit] {
			a.Sent.Add(uint64(n))
			return core.Skip
		})
	}
	return core.Skip
}

// closeQuiet closes fd, swallowing the error a victim-initiated teardown
// already left on it.
func (a *Adversary) closeQuiet(fd kernel.FD) core.M[core.Unit] {
	return core.Catch(a.io.CloseFD(fd), func(error) core.M[core.Unit] { return core.Skip })
}

var errTorndown = &torndownError{}

type torndownError struct{}

func (*torndownError) Error() string { return "loadgen: victim tore the connection down" }
