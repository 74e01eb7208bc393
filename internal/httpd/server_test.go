package httpd_test

import (
	"testing"

	"hybrid/internal/httpd"
	"time"

	"hybrid/internal/core"
	"hybrid/internal/disk"
	"hybrid/internal/hio"
	"hybrid/internal/kernel"
	"hybrid/internal/loadgen"
	"hybrid/internal/netsim"
	"hybrid/internal/nptl"
	"hybrid/internal/tcp"
	"hybrid/internal/vclock"
)

// runAndWait runs m to completion without requiring the whole runtime to
// go idle (servers keep accept-loop threads parked forever).
func runAndWait(rt *core.Runtime, m core.M[core.Unit]) {
	done := make(chan struct{})
	rt.Spawn(core.Then(m, core.Do(func() { close(done) })))
	<-done
}

// site is a complete serving stack on a virtual clock.
type site struct {
	clk *vclock.VirtualClock
	k   *kernel.Kernel
	fs  *kernel.FS
	rt  *core.Runtime
	io  *hio.IO
}

func newSite(t *testing.T, files, fileSize int) *site {
	t.Helper()
	return newSiteBatch(t, files, fileSize, 0)
}

// newSiteBatch is newSite on a scheduler that yields every batchSteps
// trace nodes (0: the default).
func newSiteBatch(t *testing.T, files, fileSize, batchSteps int) *site {
	t.Helper()
	clk := vclock.NewVirtual()
	k := kernel.New(clk)
	fs := kernel.NewFS(disk.New(clk, disk.DefaultGeometry()))
	for i := 0; i < files; i++ {
		if _, err := fs.Create(loadgen.FileName(i), int64(fileSize), false); err != nil {
			t.Fatal(err)
		}
	}
	rt := core.NewRuntime(core.Options{Workers: 1, Clock: clk, BatchSteps: batchSteps})
	io := hio.New(rt, k, fs)
	t.Cleanup(rt.Shutdown)
	return &site{clk: clk, k: k, fs: fs, rt: rt, io: io}
}

// serve binds srv at web:80 and spawns its accept loop.
func (s *site) serve(t *testing.T, srv *httpd.Server) {
	t.Helper()
	loop, err := srv.BindAndServe("web:80")
	if err != nil {
		t.Fatal(err)
	}
	s.rt.Spawn(loop)
}

func TestServerServesFileOverSockets(t *testing.T) {
	s := newSite(t, 4, 1024)
	srv := httpd.NewServer(s.io, httpd.ServerConfig{CacheBytes: 1 << 20})
	s.serve(t, srv)

	gen := loadgen.New(s.io, loadgen.Config{
		Addr: "web:80", Clients: 1, Files: 4, RequestsPerClient: 8, Seed: 42,
	})
	runAndWait(s.rt, gen.Run())
	if gen.Errors.Load() != 0 {
		t.Fatalf("client errors: %d", gen.Errors.Load())
	}
	if got := gen.Requests.Load(); got != 8 {
		t.Fatalf("requests = %d, want 8", got)
	}
	if got := gen.Bytes.Load(); got != 8*1024 {
		t.Fatalf("bytes = %d, want %d", got, 8*1024)
	}
	if gen.Statuses[2].Load() != 8 {
		t.Fatalf("2xx = %d", gen.Statuses[2].Load())
	}
	if srv.Requests() != 8 {
		t.Fatalf("server requests = %d", srv.Requests())
	}
}

func TestServerCachesFiles(t *testing.T) {
	s := newSite(t, 1, 16384)
	srv := httpd.NewServer(s.io, httpd.ServerConfig{CacheBytes: 1 << 20})
	s.serve(t, srv)
	gen := loadgen.New(s.io, loadgen.Config{
		Addr: "web:80", Clients: 1, Files: 1, RequestsPerClient: 5, Seed: 1,
	})
	runAndWait(s.rt, gen.Run())
	hits, misses, _ := srv.Cache().Stats()
	if misses != 1 || hits != 4 {
		t.Fatalf("cache hits=%d misses=%d, want 4/1", hits, misses)
	}
	// Cached requests take no disk time: total disk requests == 1 file.
	if d := s.fs.Disk().Snapshot(); d.Requests != 1 {
		t.Fatalf("disk requests = %d, want 1", d.Requests)
	}
}

func TestServer404(t *testing.T) {
	s := newSite(t, 1, 512)
	srv := httpd.NewServer(s.io, httpd.ServerConfig{})
	s.serve(t, srv)
	gen := loadgen.New(s.io, loadgen.Config{
		Addr: "web:80", Clients: 1, Files: 99, RequestsPerClient: 4, Seed: 3,
	})
	runAndWait(s.rt, gen.Run())
	if gen.Statuses[4].Load() == 0 {
		t.Fatal("no 4xx responses for missing files")
	}
	if gen.Errors.Load() != 0 {
		t.Fatalf("client errors: %d (404s must not kill the connection)", gen.Errors.Load())
	}
}

func TestServerManyClients(t *testing.T) {
	s := newSite(t, 32, 4096)
	srv := httpd.NewServer(s.io, httpd.ServerConfig{CacheBytes: 1 << 20})
	s.serve(t, srv)
	gen := loadgen.New(s.io, loadgen.Config{
		Addr: "web:80", Clients: 64, Files: 32, RequestsPerClient: 4, Seed: 9,
	})
	runAndWait(s.rt, gen.Run())
	if gen.Errors.Load() != 0 {
		t.Fatalf("client errors: %d", gen.Errors.Load())
	}
	if got := gen.Requests.Load(); got != 64*4 {
		t.Fatalf("requests = %d, want %d", got, 64*4)
	}
	// Server-side handlers observe client EOFs asynchronously.
	deadline := time.Now().Add(5 * time.Second)
	for srv.ActiveConns() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("ActiveConns = %d after drain", srv.ActiveConns())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServerNetDelayAdvancesClock(t *testing.T) {
	s := newSite(t, 1, 16384)
	srv := httpd.NewServer(s.io, httpd.ServerConfig{})
	s.serve(t, srv)
	gen := loadgen.New(s.io, loadgen.Config{
		Addr: "web:80", Clients: 1, Files: 1, RequestsPerClient: 3, Seed: 1,
		RTT: time.Millisecond, Bandwidth: 100_000_000 / 8,
	})
	runAndWait(s.rt, gen.Run())
	// 3 requests × (1ms RTT + 16KB/12.5MBps ≈ 1.3ms) ≥ 6ms, plus disk.
	if got := time.Duration(s.clk.Now()); got < 6*time.Millisecond {
		t.Fatalf("virtual time %v too small for modelled network", got)
	}
}

// TestServerOverTCPStack runs the hybrid server over the application-
// level TCP stack end to end: monadic client ↔ TCP/netsim ↔ monadic
// server — the paper's §4.8 configuration.
func TestServerOverTCPStack(t *testing.T) {
	clk := vclock.NewVirtual()
	net := netsim.New(clk, 5)
	hostS, err := net.Host("server", netsim.Ethernet100())
	if err != nil {
		t.Fatal(err)
	}
	hostC, err := net.Host("client", netsim.Ethernet100())
	if err != nil {
		t.Fatal(err)
	}
	stackS := tcp.NewStack(hostS, tcp.Config{})
	stackC := tcp.NewStack(hostC, tcp.Config{})

	k := kernel.New(clk)
	fs := kernel.NewFS(disk.New(clk, disk.DefaultGeometry()))
	if _, err := fs.Create("file-0", 16384, false); err != nil {
		t.Fatal(err)
	}
	rt := core.NewRuntime(core.Options{Workers: 1, Clock: clk})
	io := hio.New(rt, k, fs)
	defer rt.Shutdown()

	srv := httpd.NewServer(io, httpd.ServerConfig{})
	l, err := stackS.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	rt.Spawn(srv.ServeTCP(l))

	var status int
	var got int
	client := core.Bind(stackC.ConnectM("server", 80), func(c *tcp.Conn) core.M[core.Unit] {
		req := []byte("GET /file-0 HTTP/1.1\r\nHost: s\r\nConnection: close\r\n\r\n")
		return core.Then(
			core.Bind(c.WriteM(req), func(int) core.M[core.Unit] { return core.Skip }),
			func() core.M[core.Unit] {
				buf := make([]byte, 4096)
				var loop func() core.M[core.Unit]
				loop = func() core.M[core.Unit] {
					return core.Bind(c.ReadM(buf), func(n int) core.M[core.Unit] {
						if n == 0 {
							return c.CloseM()
						}
						if status == 0 {
							st, _, err := httpd.ParseResponseHead(string(buf[:n]))
							if err == nil {
								status = st
							}
						}
						got += n
						return loop()
					})
				}
				return loop()
			}(),
		)
	})
	runAndWait(rt, client)
	if status != 200 {
		t.Fatalf("status = %d", status)
	}
	wantMin := 16384
	if got < wantMin {
		t.Fatalf("received %d bytes, want >= %d", got, wantMin)
	}
	if errs := rt.UncaughtErrors(); len(errs) != 0 {
		t.Fatalf("uncaught: %v", errs)
	}
}

// ---------------------------------------------------------------------------
// Apache-like baseline
// ---------------------------------------------------------------------------

func TestApacheLikeServes(t *testing.T) {
	s := newSite(t, 8, 2048)
	nrt := nptl.New(s.k, s.fs, nptl.Config{MemoryBudget: -1})
	ap := httpd.NewApacheLike(nrt, s.k, s.fs, httpd.ApacheConfig{PageCacheBytes: 1 << 20})
	if err := ap.ListenAndServe("web:80"); err != nil {
		t.Fatal(err)
	}
	gen := loadgen.New(s.io, loadgen.Config{
		Addr: "web:80", Clients: 4, Files: 8, RequestsPerClient: 6, Seed: 11,
	})
	runAndWait(s.rt, gen.Run())
	if gen.Errors.Load() != 0 {
		t.Fatalf("client errors: %d", gen.Errors.Load())
	}
	if got := gen.Requests.Load(); got != 24 {
		t.Fatalf("requests = %d", got)
	}
	if ap.Requests() != 24 {
		t.Fatalf("server requests = %d", ap.Requests())
	}
}

func TestApacheLikeCacheSqueeze(t *testing.T) {
	s := newSite(t, 2, 1024)
	nrt := nptl.New(s.k, s.fs, nptl.Config{MemoryBudget: -1})
	ap := httpd.NewApacheLike(nrt, s.k, s.fs, httpd.ApacheConfig{PageCacheBytes: 128 << 10})
	if err := ap.ListenAndServe("web:80"); err != nil {
		t.Fatal(err)
	}
	before := ap.Cache().Capacity()
	gen := loadgen.New(s.io, loadgen.Config{
		Addr: "web:80", Clients: 3, Files: 2, RequestsPerClient: 2, Seed: 2,
	})
	runAndWait(s.rt, gen.Run())
	// During the run, 1 acceptor + up to 3 connection threads reserved
	// 32 KB stacks each, squeezing the 128 KB cache.
	if before != 128<<10 {
		t.Fatalf("initial capacity = %d", before)
	}
	if gen.Errors.Load() != 0 {
		t.Fatalf("client errors: %d", gen.Errors.Load())
	}
}

// A request body is framing, not the start of the next head: one
// connection sends a POST with a 5-byte body and a pipelined GET, and
// both servers answer 405, then 200 — whether the body rides in with its
// head or arrives, with the next head, in a later read.
func TestBodyThenPipelinedGetKeepsFraming(t *testing.T) {
	const head = "POST /file-0 HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\n\r\n"
	const rest = "hello" + "GET /file-0 HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
	const body405 = "405 Method Not Allowed\n"
	want := string(httpd.ResponseHead(405, int64(len(body405)), true)) + body405 +
		string(httpd.ResponseHead(200, 1024, false))
	for _, name := range []string{"hybrid", "apache"} {
		for _, split := range []bool{false, true} {
			s := newSite(t, 1, 1024)
			if name == "apache" {
				nrt := nptl.New(s.k, s.fs, nptl.Config{MemoryBudget: -1})
				ap := httpd.NewApacheLike(nrt, s.k, s.fs, httpd.ApacheConfig{PageCacheBytes: 1 << 20})
				if err := ap.ListenAndServe("web:80"); err != nil {
					t.Fatal(err)
				}
			} else {
				s.serve(t, httpd.NewServer(s.io, httpd.ServerConfig{CacheBytes: 1 << 20}))
			}
			writes := []string{head + rest}
			if split {
				writes = []string{head, rest}
			}
			var out []byte
			buf := make([]byte, 4096)
			runAndWait(s.rt, core.Bind(s.io.SockConnect("web:80"), func(fd kernel.FD) core.M[core.Unit] {
				send := core.Skip
				for _, w := range writes {
					// The pause lets the server read the head alone.
					send = core.Seq(send, core.Sleep(s.clk, time.Millisecond),
						core.Then(s.io.SockSend(fd, []byte(w)), core.Skip))
				}
				readToEOF := core.Loop(core.Map(s.io.SockRead(fd, buf), func(n int) bool {
					out = append(out, buf[:n]...)
					return n > 0
				}))
				return core.Seq(send, readToEOF, s.io.CloseFD(fd))
			}))
			if len(out) != len(want)+1024 || string(out[:min(len(out), len(want))]) != want {
				t.Errorf("%s (split %v) answered\n%q\nwant\n%q followed by the 1024-byte file",
					name, split, out[:min(len(out), len(want)+64)], want)
			}
		}
	}
}

func TestServerHEADReturnsNoBody(t *testing.T) {
	s := newSite(t, 1, 16384)
	srv := httpd.NewServer(s.io, httpd.ServerConfig{})
	s.serve(t, srv)

	var status int
	var length int64
	var extra int
	client := core.Bind(s.io.SockConnect("web:80"), func(fd kernel.FD) core.M[core.Unit] {
		req := []byte("HEAD /file-0 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
		return core.Seq(
			core.Bind(s.io.SockSend(fd, req), func(int) core.M[core.Unit] { return core.Skip }),
			func() core.M[core.Unit] {
				buf := make([]byte, 8192)
				var loop func(seen []byte) core.M[core.Unit]
				loop = func(seen []byte) core.M[core.Unit] {
					return core.Bind(s.io.SockRead(fd, buf), func(n int) core.M[core.Unit] {
						if n == 0 {
							st, cl, err := httpd.ParseResponseHead(string(seen))
							if err == nil {
								status, length = st, cl
							}
							// Anything after the blank line would be an
							// (incorrect) body.
							if i := indexBlank(seen); i >= 0 {
								extra = len(seen) - i - 4
							}
							return s.io.CloseFD(fd)
						}
						return loop(append(seen, buf[:n]...))
					})
				}
				return loop(nil)
			}(),
		)
	})
	runAndWait(s.rt, client)
	if status != 200 || length != 16384 {
		t.Fatalf("HEAD: status=%d length=%d", status, length)
	}
	if extra != 0 {
		t.Fatalf("HEAD response carried %d body bytes", extra)
	}
}

func indexBlank(b []byte) int {
	for i := 0; i+3 < len(b); i++ {
		if b[i] == '\r' && b[i+1] == '\n' && b[i+2] == '\r' && b[i+3] == '\n' {
			return i
		}
	}
	return -1
}

func TestServerPipelinedRequests(t *testing.T) {
	// Two GETs in one write: both must be answered, in order, on the
	// same connection.
	s := newSite(t, 2, 512)
	srv := httpd.NewServer(s.io, httpd.ServerConfig{CacheBytes: 1 << 20})
	s.serve(t, srv)

	var bodies int
	var statuses []int
	client := core.Bind(s.io.SockConnect("web:80"), func(fd kernel.FD) core.M[core.Unit] {
		req := []byte("GET /file-0 HTTP/1.1\r\nHost: x\r\n\r\nGET /file-1 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
		return core.Seq(
			core.Bind(s.io.SockSend(fd, req), func(int) core.M[core.Unit] { return core.Skip }),
			func() core.M[core.Unit] {
				buf := make([]byte, 8192)
				var all []byte
				var loop func() core.M[core.Unit]
				loop = func() core.M[core.Unit] {
					return core.Bind(s.io.SockRead(fd, buf), func(n int) core.M[core.Unit] {
						if n == 0 {
							// Parse the concatenated responses.
							rest := all
							for len(rest) > 0 {
								i := indexBlank(rest)
								if i < 0 {
									break
								}
								st, cl, err := httpd.ParseResponseHead(string(rest[:i+4]))
								if err != nil {
									break
								}
								statuses = append(statuses, st)
								bodies += int(cl)
								rest = rest[i+4+int(cl):]
							}
							return s.io.CloseFD(fd)
						}
						all = append(all, buf[:n]...)
						return loop()
					})
				}
				return loop()
			}(),
		)
	})
	runAndWait(s.rt, client)
	if len(statuses) != 2 || statuses[0] != 200 || statuses[1] != 200 {
		t.Fatalf("statuses = %v", statuses)
	}
	if bodies != 1024 {
		t.Fatalf("total body bytes = %d, want 1024", bodies)
	}
}

func TestServerMalformedRequestClosesGracefully(t *testing.T) {
	s := newSite(t, 1, 512)
	srv := httpd.NewServer(s.io, httpd.ServerConfig{})
	s.serve(t, srv)
	var sawEOF bool
	client := core.Bind(s.io.SockConnect("web:80"), func(fd kernel.FD) core.M[core.Unit] {
		return core.Seq(
			core.Bind(s.io.SockSend(fd, []byte("NONSENSE\r\n\r\n")), func(int) core.M[core.Unit] { return core.Skip }),
			core.Bind(s.io.SockRead(fd, make([]byte, 256)), func(n int) core.M[core.Unit] {
				// Either an error response or a clean close is acceptable;
				// the server must not wedge.
				sawEOF = true
				return s.io.CloseFD(fd)
			}),
		)
	})
	runAndWait(s.rt, core.Catch(client, func(error) core.M[core.Unit] {
		sawEOF = true
		return core.Skip
	}))
	if !sawEOF {
		t.Fatal("client never observed a response or close")
	}
	if srv.Errors() == 0 {
		t.Fatal("malformed request not recorded as an error")
	}
}

func TestApacheLikeHEAD(t *testing.T) {
	s := newSite(t, 1, 2048)
	nrt := nptl.New(s.k, s.fs, nptl.Config{MemoryBudget: -1})
	ap := httpd.NewApacheLike(nrt, s.k, s.fs, httpd.ApacheConfig{PageCacheBytes: 1 << 20})
	if err := ap.ListenAndServe("web:80"); err != nil {
		t.Fatal(err)
	}
	var status int
	var length int64
	client := core.Bind(s.io.SockConnect("web:80"), func(fd kernel.FD) core.M[core.Unit] {
		req := []byte("HEAD /file-0 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
		return core.Seq(
			core.Bind(s.io.SockSend(fd, req), func(int) core.M[core.Unit] { return core.Skip }),
			func() core.M[core.Unit] {
				buf := make([]byte, 4096)
				var all []byte
				var loop func() core.M[core.Unit]
				loop = func() core.M[core.Unit] {
					return core.Bind(s.io.SockRead(fd, buf), func(n int) core.M[core.Unit] {
						if n == 0 {
							status, length, _ = httpd.ParseResponseHead(string(all))
							return s.io.CloseFD(fd)
						}
						all = append(all, buf[:n]...)
						return loop()
					})
				}
				return loop()
			}(),
		)
	})
	runAndWait(s.rt, client)
	if status != 200 || length != 2048 {
		t.Fatalf("HEAD via baseline: %d %d", status, length)
	}
}
