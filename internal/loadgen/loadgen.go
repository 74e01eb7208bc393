// Package loadgen is the paper's client workload (§5.2): a multithreaded
// load generator in which each client thread repeatedly requests a file
// chosen at random from a large fileset over a persistent connection.
// Clients run as monadic threads, so tens of thousands of them are cheap.
package loadgen

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"hybrid/internal/core"
	"hybrid/internal/hio"
	"hybrid/internal/kernel"
	"hybrid/internal/stats"
	"hybrid/internal/vclock"
)

// Config parameterizes a run.
type Config struct {
	// Addr is the server's kernel-socket address.
	Addr string
	// Clients is the number of concurrent client threads.
	Clients int
	// Files is the fileset size; requests draw uniformly from
	// file-0 … file-(Files-1).
	Files int
	// RequestsPerClient bounds each client's work.
	RequestsPerClient int
	// Seed makes request sequences deterministic.
	Seed uint64
	// RTT is charged (via the clock) per request, modelling the
	// client-server network round trip the kernel socket layer does not
	// simulate. Zero disables.
	RTT time.Duration
	// Bandwidth, if nonzero, charges ResponseBytes/Bandwidth per
	// response, modelling the paper's 100 Mbps link.
	Bandwidth int64
	// MeasureLatency, when true, records each request's virtual-time
	// latency (send to last body byte, microseconds) in a histogram
	// readable via Latency(). Off by default: measuring adds clock-read
	// nodes to every request's trace.
	MeasureLatency bool
	// ConnectRetries, when > 0, retries a refused connect that many
	// times with exponential backoff (base ConnectBackoff, default 1ms)
	// before the client gives up. Off by default: under overload the
	// plain generator treats a full backlog as a dead client.
	ConnectRetries int
	ConnectBackoff time.Duration
	// Horizon, when > 0, switches every client to closed-loop sessions:
	// connect, issue SessionRequests requests, close, reconnect — until
	// the virtual clock passes start+Horizon. Failed connects and stuck
	// sessions are counted in Errors and retried after ConnectBackoff
	// instead of killing the client, so the generator measures delivered
	// goodput under contention rather than first-failure survival.
	Horizon vclock.Duration
	// SessionRequests is the requests per connection in Horizon mode
	// (default RequestsPerClient).
	SessionRequests int
	// SessionTimeout bounds one session in Horizon mode; a session that
	// cannot finish (a connection parked in a dead server's backlog, a
	// response that never comes) is abandoned, closed, and counted as one
	// error. Default 250ms.
	SessionTimeout vclock.Duration
}

// Generator drives the workload and accumulates counters.
type Generator struct {
	io  *hio.IO
	cfg Config

	Requests atomic.Uint64
	Bytes    atomic.Uint64
	Goodput  atomic.Uint64 // bytes from 2xx responses only
	Errors   atomic.Uint64
	Statuses [6]atomic.Uint64 // index status/100

	lat *stats.Histogram // nil unless cfg.MeasureLatency
}

// withDefaults fills the per-thread settings a client reads.
func (c Config) withDefaults() Config {
	if c.ConnectBackoff <= 0 {
		c.ConnectBackoff = time.Millisecond
	}
	if c.SessionRequests <= 0 {
		c.SessionRequests = max(c.RequestsPerClient, 1)
	}
	if c.SessionTimeout <= 0 {
		c.SessionTimeout = 250 * time.Millisecond
	}
	return c
}

// New creates a generator over the client-side I/O layer.
func New(io *hio.IO, cfg Config) *Generator {
	g := &Generator{io: io, cfg: cfg.withDefaults()}
	if cfg.MeasureLatency {
		// Power-of-two microsecond buckets up to ~67s of virtual time.
		g.lat = stats.NewRegistry().Histogram("latency_us", stats.PowersOfTwo(1<<26)...)
	}
	return g
}

// Latency is the per-request latency histogram in microseconds of
// virtual time, or nil when Config.MeasureLatency is off.
func (g *Generator) Latency() *stats.Histogram { return g.lat }

// MakeFileset creates n pattern-backed files of the given size named
// file-0 … file-(n-1) on fs (the paper's 128K × 16 KB fileset).
func MakeFileset(fs *kernel.FS, n int, size int64) error {
	for i := 0; i < n; i++ {
		if _, err := fs.Create(FileName(i), size, false); err != nil {
			return err
		}
	}
	return nil
}

// FileName is the canonical fileset naming scheme.
func FileName(i int) string { return fmt.Sprintf("file-%d", i) }

// Run launches the client threads and returns when every client has
// issued its full request budget.
func (g *Generator) Run() core.M[core.Unit] {
	wg := core.NewWaitGroup(g.cfg.Clients)
	return core.Then(
		core.ForN(g.cfg.Clients, func(i int) core.M[core.Unit] {
			return core.Fork(core.Finally(g.client(i), wg.Done()))
		}),
		wg.Wait(),
	)
}

// client is one client thread: a persistent connection issuing
// RequestsPerClient GETs for randomly chosen files.
func (g *Generator) client(id int) core.M[core.Unit] {
	next := xorshift(g.cfg.Seed, id)
	b := &clientBufs{}
	if g.cfg.Horizon > 0 {
		return g.sessions(next, b)
	}
	connect := g.io.SockConnect(g.cfg.Addr)
	if g.cfg.ConnectRetries > 0 {
		connect = core.Retry(g.io.Clock(), core.Backoff{
			Attempts: g.cfg.ConnectRetries + 1,
			Base:     g.cfg.ConnectBackoff,
			Factor:   2,
			Max:      100 * g.cfg.ConnectBackoff,
		}, connect)
	}
	return core.Catch(
		core.Bind(connect, func(conn kernel.FD) core.M[core.Unit] {
			return core.Finally(g.requestSeq(conn, g.cfg.RequestsPerClient, next, b), g.io.CloseFD(conn))
		}),
		func(err error) core.M[core.Unit] {
			g.Errors.Add(1)
			return core.Skip
		},
	)
}

// xorshift returns thread id's deterministic draw stream under seed.
func xorshift(seed uint64, id int) func() uint64 {
	rng := seed ^ (uint64(id)+1)*0x9E3779B97F4A7C15
	return func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
}

// before is every horizon loop's condition: the clock has not reached
// deadline.
func before(clk vclock.Clock, deadline vclock.Time) core.M[bool] {
	return core.NBIO(func() bool { return clk.Now() < deadline })
}

// sessions is the Horizon-mode client body: closed-loop sessions of
// SessionRequests requests each, repeated until the horizon, with every
// failure counted and survived. The loop and its session are built once
// a client; only the part that needs the socket is applied per session.
func (g *Generator) sessions(next func() uint64, b *clientBufs) core.M[core.Unit] {
	clk := g.io.Clock()
	// The deadline sheds the session's socket; the session itself only
	// arms it, names the failure it caused, and disarms it on every exit.
	dl := newSessionDeadline(g.io.Kernel(), clk)
	session := core.Finally(core.Catch(
		core.Bind(g.io.SockConnect(g.cfg.Addr), func(conn kernel.FD) core.M[core.Unit] {
			// A stale session may have left response fragments behind.
			b.hb.Reset()
			dl.arm(conn, g.cfg.SessionTimeout)
			return g.requestSeq(conn, g.cfg.SessionRequests, next, b)
		}),
		dl.timedOut), core.Do(dl.end))
	round := core.Catch(session, func(error) core.M[core.Unit] {
		g.Errors.Add(1)
		return g.io.Sleep(g.cfg.ConnectBackoff)
	})
	return core.Bind(core.NBIO(clk.Now), func(start vclock.Time) core.M[core.Unit] {
		return core.While(before(clk, start+vclock.Time(g.cfg.Horizon)), round)
	})
}

// netDelay is the modelled network time for a response.
func (g *Generator) netDelay(respBytes int64) time.Duration {
	d := g.cfg.RTT
	if g.cfg.Bandwidth > 0 {
		d += time.Duration(respBytes * int64(time.Second) / g.cfg.Bandwidth)
	}
	return d
}

// ErrTimedOut is raised by a session that its deadline shed.
var ErrTimedOut = errors.New("loadgen: session timed out")

// sessionDeadline bounds one client thread's sessions — a Horizon
// client's, or an idle attacker's up to the attack's horizon — the way a
// lifecycle deadline bounds a server connection: one owned clock timer,
// bound once, whose expiry marks the session expired and closes its
// socket (the lever httpd.SockTransport.Shed pulls). The session's blocked
// I/O then fails in its own thread, so no second thread races the work
// and nothing stays parked. Kernel descriptors are never reused, so a
// socket names a session. On a real clock the expiry runs on a timer
// goroutine and Stop can miss a callback under way: the socket is taken
// by one compare-and-swap, and a late callback of a replaced arm finds
// the deadline still ahead.
type sessionDeadline struct {
	k     *kernel.Kernel
	clk   vclock.Clock
	tm    *vclock.Timer
	fd    atomic.Int64 // the session's socket, noSession, or expiredSession
	until atomic.Int64 // the armed session's deadline, in clock time
}

const (
	noSession      = 0 // kernel descriptors start at 1
	expiredSession = -1
)

func newSessionDeadline(k *kernel.Kernel, clk vclock.Clock) *sessionDeadline {
	d := &sessionDeadline{k: k, clk: clk}
	d.tm = clk.NewTimer(d.expire)
	return d
}

// arm bounds the session on conn to sto from now.
func (d *sessionDeadline) arm(conn kernel.FD, sto vclock.Duration) {
	d.until.Store(int64(d.clk.Now()) + int64(sto))
	d.fd.Store(int64(conn))
	d.tm.Reset(sto)
}

// expire is the timer's callback.
func (d *sessionDeadline) expire() {
	fd := d.fd.Load()
	if fd > noSession && int64(d.clk.Now()) >= d.until.Load() && d.fd.CompareAndSwap(fd, expiredSession) {
		_ = d.k.Close(kernel.FD(fd))
	}
}

// expired reports whether the deadline shed the current session.
func (d *sessionDeadline) expired() bool { return d.fd.Load() == expiredSession }

// timedOut re-raises a session's failure, as ErrTimedOut when the
// deadline caused it.
func (d *sessionDeadline) timedOut(err error) core.M[core.Unit] {
	if d.expired() {
		err = ErrTimedOut
	}
	return core.Throw[core.Unit](err)
}

// disarm stops the deadline and takes back the session's socket, or
// noSession when the deadline already closed it.
func (d *sessionDeadline) disarm() kernel.FD {
	d.tm.Stop()
	return kernel.FD(max(d.fd.Swap(noSession), noSession))
}

// end is every session's exit, clean or exceptional.
func (d *sessionDeadline) end() {
	if fd := d.disarm(); fd != noSession {
		_ = d.k.Close(fd)
	}
}
