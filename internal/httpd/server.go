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

// SockTransport is a Transport over a kernel stream socket. Write copies
// into the socket ring; WriteCell lends the ring its bytes (a kernel
// WriteRef), so a cache hit's body is copied only by the reader.
type SockTransport struct {
	IO *hio.IO
	FD kernel.FD
}

func (s SockTransport) Read(p []byte) core.M[int]  { return s.IO.SockRead(s.FD, p) }
func (s SockTransport) Write(p []byte) core.M[int] { return s.IO.SockSend(s.FD, p) }
func (s SockTransport) Close() core.M[core.Unit]   { return s.IO.CloseFD(s.FD) }
func (s SockTransport) WriteCell(cell *[]byte) core.M[int] {
	return s.IO.SockSendCell(s.FD, cell, true)
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
	// Overload, when non-nil, enables admission control and
	// circuit-broken load shedding (see OverloadConfig). Nil keeps the
	// server byte-identical to the plain implementation.
	Overload *OverloadConfig
	// Lifecycle, when non-nil, arms per-connection phase deadlines on one
	// owned clock timer per connection: idle reaping, header and body
	// read budgets, and write-stall detection (see LifecycleConfig). Nil
	// keeps the server byte-identical to the plain implementation.
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

// A failed AIO read is retried maxDiskRetries times, the first after
// diskRetryBase and each next after twice the wait before it; a read
// still failing then is dead.
const (
	maxDiskRetries = 2
	diskRetryBase  = 500 * time.Microsecond
)

// Server is the hybrid web server: one monadic thread per connection,
// asynchronous disk I/O, and an application-level cache. Its structure is
// the paper's 370-line server: an accept loop forking per-client threads
// whose control flow reads like sequential code, with failures handled by
// monadic exceptions.
type Server struct {
	io    *hio.IO
	cfg   ServerConfig
	cache *Cache

	conns atomic.Int64 // open connections, read as active_conns

	// Counters, taken from the registry in NewServer.
	requests     *stats.Counter
	bytesOut     *stats.Counter
	errors       *stats.Counter
	cachedServes *stats.Counter // GETs answered from the cache
	aioServes    *stats.Counter // GETs streamed from disk via AIO

	// Degradation counters.
	diskRetries *stats.Counter // disk reads retried after a fault
	diskErrors  *stats.Counter // disk reads that failed after all retries
	unavailable *stats.Counter // 503 responses sent

	// Lifecycle counters (nil unless cfg.Lifecycle arms at least one
	// deadline: only then does a connection get a watch to fire them).
	reapedIdle *stats.Counter // idle keep-alive connections reaped
	shedHeader *stats.Counter // slow-loris header sheds
	shedBody   *stats.Counter // slow body-drain sheds
	shedWrite  *stats.Counter // write-stall sheds

	// Overload state and counters (nil unless cfg.Overload is set). The
	// cached cost class is every cache hit, so class_cached reads
	// cachedServes.
	ovl       *overloadState
	shedFast  *stats.Counter // uncached GETs shed by the open breaker
	classDisk *stats.Counter // requests in the blocking-disk cost class
	classMeta *stats.Counter // metadata-only requests (HEAD)

	metrics *stats.Registry
}

// NewServer creates a server over the given I/O layer (whose FS holds the
// document tree).
func NewServer(io *hio.IO, cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	s := &Server{io: io, cfg: cfg, cache: NewCache(cfg.CacheBytes)}
	m := stats.NewRegistry()
	s.metrics = m
	s.requests, s.bytesOut, s.errors = m.Counter("requests"), m.Counter("bytes_out"), m.Counter("errors")
	s.cachedServes, s.aioServes = m.Counter("cached_serves"), m.Counter("aio_serves")
	m.GaugeFunc("active_conns", s.conns.Load)
	m.CounterFunc("cache_hits", func() uint64 { h, _, _ := s.cache.Stats(); return h })
	m.CounterFunc("cache_misses", func() uint64 { _, n, _ := s.cache.Stats(); return n })
	m.CounterFunc("cache_evictions", func() uint64 { _, _, e := s.cache.Stats(); return e })
	m.GaugeFunc("cache_bytes", s.cache.Used)
	s.diskRetries, s.diskErrors = m.Counter("disk_retries"), m.Counter("disk_errors")
	s.unavailable = m.Counter("resp_503")
	if cfg.Lifecycle.enabled() {
		s.reapedIdle, s.shedHeader = m.Counter("reaped_idle"), m.Counter("shed_header")
		s.shedBody, s.shedWrite = m.Counter("shed_body"), m.Counter("shed_write")
	}
	if cfg.Overload != nil {
		s.ovl = newOverloadState(io.Clock(), cfg.Overload)
		s.shedFast = m.Counter("shed_fast")
		m.CounterFunc("class_cached", s.cachedServes.Load)
		s.classDisk, s.classMeta = m.Counter("class_disk"), m.Counter("class_meta")
	}
	return s
}

// Metrics exposes the server's registry for the observability layer.
func (s *Server) Metrics() *stats.Registry { return s.metrics }

// Cache exposes the server's cache (for benchmarks and tests).
func (s *Server) Cache() *Cache { return s.cache }

// ActiveConns reports currently served connections.
func (s *Server) ActiveConns() int64 { return s.conns.Load() }

// BindAndServe binds addr and returns the serving program to spawn: the
// accept loop, forking a handler thread per client — the server function
// of the paper's Figure 4. The listener exists before this returns, so a
// harness may start client threads — on other workers, or ahead of the
// server thread — without racing the bind: their connects queue in the
// kernel backlog until the accept loop runs.
func (s *Server) BindAndServe(addr string) (core.M[core.Unit], error) {
	lfd, err := s.io.Kernel().Listen(addr, s.backlog())
	if err != nil {
		return nil, err
	}
	return s.acceptLoop(core.Map(s.io.SockAccept(lfd),
		func(fd kernel.FD) Transport { return SockTransport{IO: s.io, FD: fd} })), nil
}

// backlog is the listen backlog: 1024 unless overload mode overrides it.
func (s *Server) backlog() int {
	if s.ovl != nil && s.ovl.backlog > 0 {
		return s.ovl.backlog
	}
	return 1024
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
	c := &conn{s: s, buf: (*[connReadBytes]byte)(bufpool.Get(connReadBytes))}
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
// need — its close trace, the transports' park records, the disk path —
// is built when first used, not here.
type conn struct {
	s *Server
	t Transport                  // the peer, behind the lifecycle watch when w != nil
	w *connWatch                 // nil unless a lifecycle deadline is armed
	k func(core.Unit) core.Trace // the thread's continuation after a clean close

	buf  *[connReadBytes]byte // pooled read buffer (a pointer: 16 bytes less than a slice)
	hb   HeadBuffer
	req  Request // views hb's bytes: valid until the next request's takePending
	miss *miss   // the disk path, built at the first cache miss

	// A response stores its head in respHead and, on a hit, its body in
	// respBody, then jumps to hit (the head write, the body write, then
	// next(keep)) or to the miss record's head write.
	respHead, respBody []byte
	keep               bool

	pending   core.NBIONode
	read, hit core.Trace
}

// run wires the loop for the thread's continuation k and enters it.
func (c *conn) run(k func(core.Unit) core.Trace) core.Trace {
	c.k = k
	c.pending.Effect = c.takePending
	c.read = c.t.Read(c.buf[:])(c.onRead)
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
	s.requests.Inc()
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
			s.classMeta.Inc()
		}
		return core.Bind(s.io.FileOpen(name), func(f *kernel.File) core.M[bool] {
			if f == nil {
				return s.sendError(t, 404, keep)
			}
			return core.Then(t.Write(ResponseHead(200, f.Size(), keep)), core.Return(keep))
		})(c.next)
	}

	// Cache hit: purely nonblocking, and zero-copy where the transport
	// sends by reference — cache entries and memoized response heads are
	// immutable, so the bytes the client receives were written exactly
	// once, at cache fill.
	c.keep = keep
	if data, ok := s.cache.Get(name); ok {
		s.cachedServes.Inc()
		c.respHead = ResponseHead(200, int64(len(data)), keep)
		c.respBody = data
		return c.hit
	}
	return c.respondMiss(name)
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
	bufpool.Put(c.buf[:])
}

// fail is the exception path (EPIPE, reset, shed, malformed request),
// which never reached close's accounting: release here, close the
// transport best-effort.
func (c *conn) fail(error) core.M[core.Unit] {
	c.release()
	c.s.errors.Inc()
	if c.miss != nil {
		c.miss.ck.drop(c.s.cache) // a fill a reset peer or a shed cut short
	}
	return core.Catch(c.t.Close(), func(error) core.M[core.Unit] { return core.Skip })
}

// respondMiss serves a cache-missing GET: the blocking-disk cost class.
// Under an open breaker the request is shed with an immediate 503 —
// cached requests never reach this point, so shedding protects exactly
// the expensive path.
func (c *conn) respondMiss(name string) core.Trace {
	s, m := c.s, c.miss
	if m == nil {
		m = c.newMiss()
	}
	m.name = name
	if s.ovl != nil {
		s.classDisk.Inc()
		if s.ovl.breaker != nil {
			if admit, _ := s.ovl.breaker.Allow(); !admit {
				s.shedFast.Inc()
				return s.sendError(c.t, 503, c.keep)(c.next)
			}
			return s.observeDisk(m.enter)(c.next)
		}
	}
	return m.enter(m.next)
}

// miss is a connection's disk path, the paper's send_file (Figure 13):
// the open (sys_blio), the AIO reads, the head and body writes and the
// cache fill. Like hit it is built once, at the connection's first miss,
// and re-entered for every later one; the open and the read read their
// arguments through its fields. A miss applies only its body write,
// which copies: the fill is the cache's to recycle, so nothing may keep
// a view of it. A 404, a retry, a dead read and an uncacheable file
// apply combinators.
type miss struct {
	c    *conn
	k    func(bool) core.Trace // where this response continues
	next func(bool) core.Trace // c.next

	name string       // the file to open
	f    *kernel.File // the file open, and the chunk to read: off, p
	off  int64
	p    []byte
	n    int // bytes the last read landed
	try  int // failed reads of this chunk so far
	ck   chunker

	open, read, head core.Trace
	wrote            func(int) core.Trace
}

func (c *conn) newMiss() *miss {
	m := &miss{c: c, next: c.next}
	m.open = c.s.io.FileOpenCell(&m.name)(m.opened)
	m.read = c.s.io.AIOReadResultCell(&m.f, &m.off, &m.p)(m.onRead)
	m.head = c.t.WriteCell(&c.respHead)(m.land)
	m.wrote = m.onWrote
	c.miss = m
	return m
}

// enter opens the file and answers the request, continuing at k.
func (m *miss) enter(k func(bool) core.Trace) core.Trace {
	m.k = k
	return m.open
}

func (m *miss) opened(f *kernel.File) core.Trace {
	c, s := m.c, m.c.s
	if f == nil {
		return s.sendError(c.t, 404, c.keep)(m.k)
	}
	s.aioServes.Inc()
	m.f, m.off, m.try = f, 0, 0
	m.ck = newChunker(s.cache, f.Size(), s.cfg.CacheBytes, s.cfg.ChunkBytes)
	c.respHead = ResponseHead(200, f.Size(), c.keep)
	if !m.ck.cacheable() {
		// The pooled chunk goes back however the stream ends: completed,
		// short, shed, or thrown past by a dead chunk or a reset peer.
		return core.Ensure(m.ck.release, core.M[bool](m.stream))(m.k)
	}
	return m.stream(m.k)
}

// stream reads the first chunk, or writes the head of an empty file,
// which has no first read to fail.
func (m *miss) stream(k func(bool) core.Trace) core.Trace {
	m.k = k
	if m.ck.size == 0 {
		return m.head
	}
	m.p = m.ck.window(0)
	return m.read
}

// onRead takes a read's result. A failed read is retried up to
// maxDiskRetries times, the first after diskRetryBase and each next after
// twice the wait before it; a read that succeeds costs nothing more. A
// chunk still failing then is answered on the first chunk, which is read
// before the status line is committed, with a clean 503 instead of a torn
// 200, and on a later chunk, whose bytes the head has already promised,
// by throwing to the connection's Catch.
func (m *miss) onRead(r hio.Result[int]) core.Trace {
	s := m.c.s
	switch {
	case r.Err == nil:
		m.try, m.n = 0, r.Val
		if m.off == 0 {
			return m.head
		}
		return m.land(0)
	case m.try < maxDiskRetries:
		s.diskRetries.Inc()
		m.try++
		return s.io.Sleep(diskRetryBase << (m.try - 1))(func(core.Unit) core.Trace { return m.read })
	}
	s.diskErrors.Inc()
	m.ck.drop(s.cache)
	if m.off > 0 {
		return &core.ThrowNode{Err: r.Err}
	}
	shed := s.sendError(m.c.t, 503, false) // degrade: shed this connection
	if s.Breaker() != nil {
		shed = core.Then(shed, core.Throw[bool](errDiskDead)) // see observeDisk
	}
	return shed(m.k)
}

// land writes the n bytes just read at off, after the head for the first
// chunk; a short read (n == 0) ends the stream uncached, and an empty
// file is done at once.
func (m *miss) land(int) core.Trace {
	if m.ck.size == 0 {
		return m.done()
	}
	if m.n == 0 {
		m.ck.drop(m.c.s.cache)
		return m.k(m.c.keep)
	}
	return m.c.t.Write(m.ck.view(m.off, m.n))(m.wrote)
}

// onWrote reads the next chunk, or finishes the file.
func (m *miss) onWrote(w int) core.Trace {
	m.c.s.bytesOut.Add(uint64(w))
	m.off += int64(m.n)
	if m.off < m.ck.size {
		m.p = m.ck.window(m.off)
		return m.read
	}
	return m.done()
}

// done caches the assembled file under the file's own name and answers
// keep.
func (m *miss) done() core.Trace {
	m.p = nil
	if m.ck.cacheable() {
		m.ck.store(m.c.s.cache, m.f.Name())
	}
	return m.k(m.c.keep)
}

func (s *Server) sendError(t Transport, status int, keep bool) core.M[bool] {
	if status == 503 {
		s.unavailable.Inc()
	}
	body := []byte(fmt.Sprintf("%d %s\n", status, statusText[status]))
	head := ResponseHead(status, int64(len(body)), keep)
	return core.Then(
		core.Bind(t.Write(head), func(int) core.M[int] { return t.Write(body) }),
		core.Return(keep),
	)
}
