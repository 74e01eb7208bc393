package httpd

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"hybrid/internal/bufpool"
	"hybrid/internal/core"
	"hybrid/internal/hio"
	"hybrid/internal/kernel"
	"hybrid/internal/stats"
	"hybrid/internal/tcp"
	"hybrid/internal/timerwheel"
)

// Transport abstracts a byte-stream connection for the monadic server, so
// the same server code runs over kernel stream sockets or the
// application-level TCP stack — the paper's "by editing one line of code
// in the web server, the programmer can choose between the standard
// socket library and the customized TCP library" (§5.2).
type Transport interface {
	// Read yields at least one byte, or 0 at end of stream.
	Read(p []byte) core.M[int]
	// Write sends all of p, copying what it cannot send at once: the
	// caller may reuse p as soon as the count is delivered (the disk
	// chunker's scratch buffer relies on it).
	Write(p []byte) core.M[int]
	// WriteCell returns a computation that, each time its trace is
	// forced, sends all of the buffer *cell holds at that moment. It may
	// alias the buffer instead of copying — TCP segments reference cache
	// entries in place, the zero-copy half of §4.3's "avoiding unnecessary
	// copies" — so the caller never mutates what it has sent this way.
	// The serve loop applies it once per connection and re-enters the
	// trace per response. *cell must not change until the count is
	// delivered.
	WriteCell(cell *[]byte) core.M[int]
	// Close ends the connection.
	Close() core.M[core.Unit]
}

// SockTransport is a Transport over a kernel stream socket (every send
// copies into the socket ring).
type SockTransport struct {
	IO *hio.IO
	FD kernel.FD
}

func (s SockTransport) Read(p []byte) core.M[int]  { return s.IO.SockRead(s.FD, p) }
func (s SockTransport) Write(p []byte) core.M[int] { return s.IO.SockSend(s.FD, p) }
func (s SockTransport) Close() core.M[core.Unit]   { return s.IO.CloseFD(s.FD) }
func (s SockTransport) WriteCell(cell *[]byte) core.M[int] {
	return s.IO.SockSendCell(s.FD, cell)
}

// TCPTransport is a Transport over the application-level TCP stack;
// WriteCell queues by reference via the vectored send path.
type TCPTransport struct{ Conn *tcp.Conn }

func (t TCPTransport) Read(p []byte) core.M[int]          { return t.Conn.ReadM(p) }
func (t TCPTransport) Write(p []byte) core.M[int]         { return t.Conn.WriteM(p) }
func (t TCPTransport) Close() core.M[core.Unit]           { return t.Conn.CloseM() }
func (t TCPTransport) WriteCell(cell *[]byte) core.M[int] { return t.Conn.WriteCellVM(cell) }

// ServerConfig tunes the hybrid server.
type ServerConfig struct {
	// CacheBytes is the application-level cache size; the paper's server
	// used a fixed 100 MB.
	CacheBytes int64
	// ChunkBytes is the AIO read granularity for uncached files.
	// Default 16 KB (the benchmark's file size, so one read per file).
	ChunkBytes int
	// DiskRetries, when positive, enables graceful degradation of the
	// disk path: each AIO read gets up to DiskRetries retries (backing
	// off from diskRetryBase, doubling) before the request fails, and a
	// file whose first read fails after all retries is answered with a 503
	// instead of a wedged or torn connection. Zero keeps the original
	// fail-fast path byte-for-byte.
	DiskRetries int
	// Overload, when non-nil, enables admission control and
	// circuit-broken load shedding (see OverloadConfig). Nil keeps the
	// server byte-identical to the plain implementation.
	Overload *OverloadConfig
	// Lifecycle, when non-nil, arms per-connection phase deadlines on the
	// server's timer wheel: idle reaping, header and body read budgets,
	// and write-stall detection (see LifecycleConfig). Nil keeps the
	// server byte-identical to the plain implementation.
	Lifecycle *LifecycleConfig
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.CacheBytes <= 0 {
		c.CacheBytes = 100 * 1024 * 1024
	}
	if c.ChunkBytes <= 0 {
		c.ChunkBytes = 16 * 1024
	}
	return c
}

// diskRetryBase is the base delay between disk retries.
const diskRetryBase = 500 * time.Microsecond

// Server is the hybrid web server: one monadic thread per connection,
// asynchronous disk I/O, and an application-level cache. Its structure is
// the paper's 370-line server: an accept loop forking per-client threads
// whose control flow reads like sequential code, with failures handled by
// monadic exceptions.
type Server struct {
	io    *hio.IO
	cfg   ServerConfig
	cache *Cache

	requests     atomic.Uint64
	bytesOut     atomic.Uint64
	errors       atomic.Uint64
	conns        atomic.Int64
	cachedServes atomic.Uint64 // GETs answered from the cache
	aioServes    atomic.Uint64 // GETs streamed from disk via AIO

	// Degradation counters (registered only with DiskRetries — the
	// default server's stats snapshot is unchanged).
	diskRetries atomic.Uint64 // disk reads retried after a fault
	diskErrors  atomic.Uint64 // disk reads that failed after all retries
	unavailable atomic.Uint64 // 503 responses sent

	// Lifecycle state and counters (nil / registered only when
	// cfg.Lifecycle arms at least one deadline).
	wheel      *timerwheel.Wheel
	reapedIdle atomic.Uint64 // idle keep-alive connections reaped
	shedHeader atomic.Uint64 // slow-loris header sheds
	shedBody   atomic.Uint64 // slow body-drain sheds
	shedWrite  atomic.Uint64 // write-stall sheds

	// Overload state and counters (nil / registered only when
	// cfg.Overload is set).
	ovl         *overloadState
	shedFast    atomic.Uint64 // uncached GETs shed by the open breaker
	classCached atomic.Uint64 // requests in the cached cost class
	classDisk   atomic.Uint64 // requests in the blocking-disk cost class
	classMeta   atomic.Uint64 // metadata-only requests (HEAD)

	metrics *stats.Registry
}

// NewServer creates a server over the given I/O layer (whose FS holds the
// document tree).
func NewServer(io *hio.IO, cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	s := &Server{io: io, cfg: cfg, cache: NewCache(cfg.CacheBytes)}
	s.metrics = stats.NewRegistry()
	s.metrics.CounterFunc("requests", s.requests.Load)
	s.metrics.CounterFunc("bytes_out", s.bytesOut.Load)
	s.metrics.CounterFunc("errors", s.errors.Load)
	s.metrics.CounterFunc("cached_serves", s.cachedServes.Load)
	s.metrics.CounterFunc("aio_serves", s.aioServes.Load)
	s.metrics.GaugeFunc("active_conns", s.conns.Load)
	s.metrics.CounterFunc("cache_hits", func() uint64 { h, _, _ := s.cache.Stats(); return h })
	s.metrics.CounterFunc("cache_misses", func() uint64 { _, m, _ := s.cache.Stats(); return m })
	s.metrics.CounterFunc("cache_evictions", func() uint64 { _, _, e := s.cache.Stats(); return e })
	s.metrics.GaugeFunc("cache_bytes", s.cache.Used)
	if cfg.DiskRetries > 0 {
		s.metrics.CounterFunc("disk_retries", s.diskRetries.Load)
		s.metrics.CounterFunc("disk_errors", s.diskErrors.Load)
		s.metrics.CounterFunc("resp_503", s.unavailable.Load)
	}
	if cfg.Lifecycle.enabled() {
		s.wheel = timerwheel.New(io.Clock())
		s.metrics.CounterFunc("reaped_idle", s.reapedIdle.Load)
		s.metrics.CounterFunc("shed_header", s.shedHeader.Load)
		s.metrics.CounterFunc("shed_body", s.shedBody.Load)
		s.metrics.CounterFunc("shed_write", s.shedWrite.Load)
	}
	if cfg.Overload != nil {
		s.ovl = newOverloadState(io.Clock(), cfg.Overload)
		s.metrics.CounterFunc("shed_fast", s.shedFast.Load)
		s.metrics.CounterFunc("class_cached", s.classCached.Load)
		s.metrics.CounterFunc("class_disk", s.classDisk.Load)
		s.metrics.CounterFunc("class_meta", s.classMeta.Load)
	}
	return s
}

// Metrics exposes the server's registry for the observability layer.
func (s *Server) Metrics() *stats.Registry { return s.metrics }

// Cache exposes the server's cache (for benchmarks and tests).
func (s *Server) Cache() *Cache { return s.cache }

// Requests reports the number of requests served.
func (s *Server) Requests() uint64 { return s.requests.Load() }

// Errors reports connections that ended with an I/O exception.
func (s *Server) Errors() uint64 { return s.errors.Load() }

// ActiveConns reports currently served connections.
func (s *Server) ActiveConns() int64 { return s.conns.Load() }

// BindAndServe binds addr and returns the serving program to spawn. The
// listener exists before this returns, so a harness may start client
// threads — on other workers, or ahead of the server thread — without
// racing the bind: their connects queue in the kernel backlog until the
// accept loop runs.
func (s *Server) BindAndServe(addr string) (core.M[core.Unit], error) {
	lfd, err := s.io.Kernel().Listen(addr, s.backlog())
	if err != nil {
		return nil, err
	}
	return s.AcceptLoop(lfd), nil
}

// backlog is the listen backlog: 1024 unless overload mode overrides it.
func (s *Server) backlog() int {
	if s.ovl != nil && s.ovl.backlog > 0 {
		return s.ovl.backlog
	}
	return 1024
}

// AcceptLoop accepts connections forever, forking a handler thread per
// client — the server function of the paper's Figure 4.
func (s *Server) AcceptLoop(lfd kernel.FD) core.M[core.Unit] {
	return s.acceptLoop(core.Map(s.io.SockAccept(lfd),
		func(fd kernel.FD) Transport { return SockTransport{IO: s.io, FD: fd} }))
}

// ServeTCP accepts connections from an application-level TCP listener
// forever — the one-line transport switch.
func (s *Server) ServeTCP(l *tcp.Listener) core.M[core.Unit] {
	return s.acceptLoop(core.Map(l.AcceptM(),
		func(c *tcp.Conn) Transport { return TCPTransport{Conn: c} }))
}

// acceptLoop is the accept loop over either transport. With MaxConns set
// each accept first takes an admission slot, so a saturated server stops
// accepting and the backlog carries the back-pressure; the slot rides an
// Ensure frame on the connection thread (a panicking handler still gives
// it back), and a failed accept returns it at once.
func (s *Server) acceptLoop(accept core.M[Transport]) core.M[core.Unit] {
	lim := s.Limiter()
	step := core.Bind(accept, func(t Transport) core.M[core.Unit] {
		serve := s.ServeTransport(t)
		if lim != nil {
			serve = core.Ensure(lim.Release, serve)
		}
		return core.Fork(serve)
	})
	if lim != nil {
		step = core.Then(lim.Acquire(), core.OnException(step, core.Do(lim.Release)))
	}
	return core.Forever(step)
}

// connReadBytes is the per-connection input buffer size (a bufpool
// class, so the buffer recycles across connections).
const connReadBytes = 4096

// ServeTransport handles one connection: parse requests, serve files,
// repeat while keep-alive, and on any I/O exception close cleanly — the
// paper's "I/O errors are handled gracefully using exceptions". Every
// transport and every configuration takes this one loop; lifecycle
// deadlines ride in on the transport (watchConn), not on a second path.
func (s *Server) ServeTransport(t Transport) core.M[core.Unit] {
	s.conns.Add(1)
	c := &conn{s: s, buf: bufpool.Get(connReadBytes)}
	c.t, c.w = s.watchConn(t)
	if c.w != nil {
		c.w.toIdle() // budget for the first request's first byte
	}
	return core.Catch(core.M[core.Unit](c.run), c.fail)
}

// conn is one connection's request loop in direct trace style, its whole
// state in one record: the loop's trampoline node and the read and
// cache-hit write traces are made once per connection and re-entered for
// every keep-alive request (trace nodes are immutable to the scheduler —
// forcing one only calls its Effect — so re-entering pending IS serving
// the next request). Between a read and the response's first write there
// is no system call, so there is no node: feed, parse and respond run
// inline from the read's continuation. What a parked connection does not
// need — its close trace, the transports' park traces — is built when
// first used, not here.
type conn struct {
	s *Server
	t Transport                  // the peer, behind the lifecycle watch when w != nil
	w *connWatch                 // nil unless a lifecycle deadline is armed
	k func(core.Unit) core.Trace // the thread's continuation after a clean close

	buf []byte // pooled read buffer
	hb  HeadBuffer
	req Request // aliases the head it was parsed from

	// A cache hit stores its response in the two cells and jumps to hit:
	// the head write, then the body write, then next(keep).
	respHead, respBody []byte
	keep               bool

	pending   core.NBIONode
	read, hit core.Trace
}

// run wires the loop for the thread's continuation k and enters it.
func (c *conn) run(k func(core.Unit) core.Trace) core.Trace {
	c.k = k
	c.pending.Effect = c.takePending
	c.read = c.t.Read(c.buf)(c.onRead)
	body := c.t.WriteCell(&c.respBody)(func(n int) core.Trace {
		c.s.bytesOut.Add(uint64(n))
		return c.next(c.keep)
	})
	c.hit = c.t.WriteCell(&c.respHead)(func(int) core.Trace { return body })
	return &c.pending
}

// takePending serves a pipelined head already buffered, else reads.
func (c *conn) takePending() core.Trace {
	head, err := c.hb.Pending()
	if head == "" && err == nil {
		return c.read
	}
	return c.serve(head, err)
}

// onRead takes the read's count: end of stream closes, bytes are fed to
// the head buffer and a completed head is served.
func (c *conn) onRead(n int) core.Trace {
	if n == 0 {
		return c.close() // clean EOF
	}
	if c.w != nil {
		c.w.onBytes() // first bytes of a head: idle -> header budget
	}
	head, err := c.hb.Feed(c.buf[:n])
	if head == "" && err == nil {
		return &c.pending // need more input for this head
	}
	return c.serve(head, err)
}

// serve parses an extracted head and answers it: every method, status
// and cache outcome is decided in this one step.
func (c *conn) serve(head string, err error) core.Trace {
	if err == nil {
		err = ParseRequestInto(&c.req, head)
	}
	if err != nil {
		return &core.ThrowNode{Err: err}
	}
	if drain := c.drainBody(); drain != nil {
		return drain(func(core.Unit) core.Trace { return c.respond() })
	}
	return c.respond()
}

// respond answers the parsed request (its body, if any, drained) and
// continues at next.
func (c *conn) respond() core.Trace {
	if c.w != nil {
		c.w.toWrite()
	}
	s, t, req := c.s, c.t, &c.req
	s.requests.Add(1)
	keep := req.KeepAlive()
	if req.Method != "GET" && req.Method != "HEAD" {
		return s.sendError(t, 405, keep)(c.next)
	}
	name := strings.TrimPrefix(req.Path, "/")
	if name == "" || strings.Contains(name, "..") {
		return s.sendError(t, 400, keep)(c.next)
	}

	// HEAD: metadata only; the open is a sys_blio call (hio.FileOpen).
	if req.Method == "HEAD" {
		if s.ovl != nil {
			s.classMeta.Add(1)
		}
		return core.Bind(
			core.Catch(
				core.Map(s.io.FileOpen(name), (*kernel.File).Size),
				func(error) core.M[int64] { return core.Return(int64(-1)) },
			),
			func(size int64) core.M[bool] {
				if size < 0 {
					return s.sendError(t, 404, keep)
				}
				return core.Then(t.Write(ResponseHead(200, size, keep)), core.Return(keep))
			},
		)(c.next)
	}

	// Cache hit: purely nonblocking, and zero-copy where the transport
	// sends by reference — cache entries and memoized response heads are
	// immutable, so the bytes the client receives were written exactly
	// once, at cache fill.
	if data, ok := s.cache.Get(name); ok {
		s.cachedServes.Add(1)
		if s.ovl != nil {
			s.classCached.Add(1)
		}
		c.keep = keep
		c.respHead = ResponseHead(200, int64(len(data)), keep)
		c.respBody = data
		return c.hit
	}
	return s.respondMiss(t, name, keep)(c.next)
}

// next follows a response: the next request on a kept connection.
func (c *conn) next(keep bool) core.Trace {
	if !keep {
		return c.close()
	}
	if c.w != nil {
		c.w.toIdle() // response done: next deadline is the idle reap
	}
	return &c.pending
}

// close ends the connection cleanly; its trace is built here, once, when
// the connection ends.
func (c *conn) close() core.Trace {
	return core.Then(c.t.Close(), core.Do(c.release))(c.k)
}

// release gives back what the connection held.
func (c *conn) release() {
	if c.w != nil {
		c.w.cancel()
	}
	c.s.conns.Add(-1)
	bufpool.Put(c.buf)
}

// fail is the exception path (EPIPE, reset, shed, malformed request),
// which never reached close's accounting: release here, close the
// transport best-effort.
func (c *conn) fail(error) core.M[core.Unit] {
	c.release()
	c.s.errors.Add(1)
	return core.Catch(c.t.Close(), func(error) core.M[core.Unit] { return core.Skip })
}

// respondMiss serves a cache-missing GET: the blocking-disk cost class.
// Under an open breaker the request is shed with an immediate 503 —
// cached requests never reach this point, so shedding protects exactly
// the expensive path.
func (s *Server) respondMiss(t Transport, name string, keep bool) core.M[bool] {
	if s.ovl != nil {
		s.classDisk.Add(1)
		if s.ovl.breaker != nil {
			if admit, _ := s.shedDisk(); !admit {
				return s.sendError(t, 503, keep)
			}
			return s.observeDisk(s.respondDisk(t, name, keep))
		}
	}
	return s.respondDisk(t, name, keep)
}

// respondDisk serves a cache-missing GET: open (sys_blio) and
// stream via AIO, exactly the paper's send_file (Figure 13) with cleanup
// handled by Catch in the caller.
func (s *Server) respondDisk(t Transport, name string, keep bool) core.M[bool] {
	return core.Bind(
		core.Catch(
			s.io.FileOpen(name),
			func(error) core.M[*kernel.File] {
				return core.Return[*kernel.File](nil) // 404 below
			},
		),
		func(f *kernel.File) core.M[bool] {
			if f == nil {
				return s.sendError(t, 404, keep)
			}
			s.aioServes.Add(1)
			if s.cfg.DiskRetries > 0 && f.Size() > 0 {
				// Degrading path: bounded retries, 503 on a dead file. An
				// empty file has no first read to fail.
				return s.sendFileDegraded(t, f, name, keep)
			}
			return core.Then(s.sendFile(t, f, name, keep), core.Return(keep))
		},
	)
}

// sendFile streams a file: header first, then AIO reads landing directly
// in the chunker's destination buffer (one write per byte — no
// assemble-by-append second copy); small files' destinations become
// their cache entries afterwards.
func (s *Server) sendFile(t Transport, f *kernel.File, name string, keep bool) core.M[core.Unit] {
	size := f.Size()
	ck := newChunker(size, s.cfg.CacheBytes, s.cfg.ChunkBytes)
	readAt := func(off int64) core.M[int] { return s.io.AIORead(f, off, ck.window(off)) }
	_, stream := s.streamBody(t, ck, name, readAt)

	return core.Then(t.Write(ResponseHead(200, size, keep)), stream(0))
}

// sendFileDegraded is sendFile with the recovery combinators threaded
// in: every AIO read gets bounded retries with backoff, and — crucially
// — the FIRST chunk is read before the status line is committed, so a
// file the disk cannot deliver degrades to a clean 503 instead of a
// torn 200. A read that exhausts its retries mid-stream can only abort
// the connection (the head already promised size bytes); the caller's
// Catch closes it.
func (s *Server) sendFileDegraded(t Transport, f *kernel.File, name string, keep bool) core.M[bool] {
	size := f.Size()
	ck := newChunker(size, s.cfg.CacheBytes, s.cfg.ChunkBytes)
	bo := core.Backoff{Attempts: s.cfg.DiskRetries + 1, Base: diskRetryBase, Factor: 2}
	readAt := func(off int64) core.M[int] {
		// The retry predicate runs once per failed attempt that will be
		// retried; the OnException hook fires only when retries are
		// exhausted and the failure escapes.
		return core.OnException(
			core.RetryIf(s.io.Clock(), bo,
				func(error) bool { s.diskRetries.Add(1); return true },
				s.io.AIORead(f, off, ck.window(off))),
			core.Do(func() { s.diskErrors.Add(1) }),
		)
	}
	ship, _ := s.streamBody(t, ck, name, readAt)

	return core.Bind(
		core.Catch(readAt(0), func(error) core.M[int] { return core.Return(-1) }),
		func(n0 int) core.M[bool] {
			if n0 < 0 {
				ck.release()
				shed := s.sendError(t, 503, false) // degrade: shed this connection
				if s.Breaker() != nil {
					shed = core.Then(shed, core.Throw[bool](errDiskDead)) // see observeDisk
				}
				return shed
			}
			body := core.Skip
			if n0 > 0 {
				body = ship(n0, 0)
			} else {
				ck.release()
			}
			return core.Then(t.Write(ResponseHead(200, size, keep)),
				core.Then(body, core.Return(keep)))
		},
	)
}

func (s *Server) sendError(t Transport, status int, keep bool) core.M[bool] {
	if status == 503 {
		s.unavailable.Add(1)
	}
	body := []byte(fmt.Sprintf("%d %s\n", status, statusText[status]))
	head := ResponseHead(status, int64(len(body)), keep)
	return core.Then(
		core.Bind(t.Write(head), func(int) core.M[int] { return t.Write(body) }),
		core.Return(keep),
	)
}
