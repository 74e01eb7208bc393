// Package loadgen is the paper's client workload (§5.2): a multithreaded
// load generator in which each client thread repeatedly requests a file
// chosen at random from a large fileset over a persistent connection.
// Clients run as monadic threads, so tens of thousands of them are cheap.
package loadgen

import (
	"fmt"
	"sync/atomic"
	"time"

	"hybrid/internal/core"
	"hybrid/internal/hio"
	"hybrid/internal/httpd"
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

// New creates a generator over the client-side I/O layer.
func New(io *hio.IO, cfg Config) *Generator {
	g := &Generator{io: io, cfg: cfg}
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
	rng := g.cfg.Seed ^ (uint64(id)+1)*0x9E3779B97F4A7C15
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	// One response buffer and head accumulator per client, reused across
	// its whole request sequence (oneRequest leaves both empty).
	hb := &httpd.HeadBuffer{}
	buf := make([]byte, 8192)
	if g.cfg.Horizon > 0 {
		return g.sessions(next, hb, buf)
	}
	body := func(conn kernel.FD) core.M[core.Unit] {
		return g.requestSeq(conn, g.cfg.RequestsPerClient, next, hb, buf)
	}
	connect := g.io.SockConnect(g.cfg.Addr)
	if g.cfg.ConnectRetries > 0 {
		base := g.cfg.ConnectBackoff
		if base <= 0 {
			base = time.Millisecond
		}
		connect = core.Retry(g.io.Clock(), core.Backoff{
			Attempts: g.cfg.ConnectRetries + 1,
			Base:     base,
			Factor:   2,
			Max:      100 * base,
		}, connect)
	}
	return core.Catch(
		core.Bind(connect, func(conn kernel.FD) core.M[core.Unit] {
			return core.Finally(body(conn), g.io.CloseFD(conn))
		}),
		func(err error) core.M[core.Unit] {
			g.Errors.Add(1)
			return core.Skip
		},
	)
}

// sessions is the Horizon-mode client body: closed-loop sessions of
// SessionRequests requests each, repeated until the horizon, with every
// failure counted and survived.
func (g *Generator) sessions(next func() uint64, hb *httpd.HeadBuffer, buf []byte) core.M[core.Unit] {
	clk := g.io.Clock()
	per := g.cfg.SessionRequests
	if per <= 0 {
		per = g.cfg.RequestsPerClient
	}
	if per < 1 {
		per = 1
	}
	sto := g.cfg.SessionTimeout
	if sto <= 0 {
		sto = 250 * time.Millisecond
	}
	backoff := g.cfg.ConnectBackoff
	if backoff <= 0 {
		backoff = time.Millisecond
	}
	work := func(conn kernel.FD) core.M[core.Unit] {
		return g.requestSeq(conn, per, next, hb, buf)
	}
	one := func() core.M[core.Unit] {
		// A stale session may have left response fragments behind.
		hb.Reset()
		return core.Bind(g.io.SockConnect(g.cfg.Addr), func(conn kernel.FD) core.M[core.Unit] {
			// The timeout sits inside the Finally: an abandoned session's
			// socket is closed immediately, which also unblocks the
			// abandoned thread so it unwinds instead of leaking.
			return core.Finally(
				core.Timeout(clk, sto, work(conn)),
				core.Catch(g.io.CloseFD(conn), func(error) core.M[core.Unit] { return core.Skip }),
			)
		})
	}
	return core.Bind(core.NBIO(clk.Now), func(start vclock.Time) core.M[core.Unit] {
		deadline := start + vclock.Time(g.cfg.Horizon)
		var loop func() core.M[core.Unit]
		loop = func() core.M[core.Unit] {
			return core.Bind(core.NBIO(clk.Now), func(now vclock.Time) core.M[core.Unit] {
				if now >= deadline {
					return core.Skip
				}
				return core.Then(
					core.Catch(one(), func(error) core.M[core.Unit] {
						g.Errors.Add(1)
						return g.io.Sleep(backoff)
					}),
					loop(),
				)
			})
		}
		return loop()
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
