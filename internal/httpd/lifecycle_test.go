package httpd_test

import (
	"strings"
	"testing"
	"time"

	"hybrid/internal/core"
	"hybrid/internal/disk"
	"hybrid/internal/hio"
	"hybrid/internal/httpd"
	"hybrid/internal/kernel"
	"hybrid/internal/loadgen"
	"hybrid/internal/netsim"
	"hybrid/internal/tcp"
	"hybrid/internal/vclock"
)

// lifecycleSite starts a lifecycle-hardened server and returns it with its
// site. Timeouts not set by the caller stay disabled.
func lifecycleSite(t *testing.T, files, fileSize int, lc httpd.LifecycleConfig) (*site, *httpd.Server) {
	t.Helper()
	s := newSite(t, files, fileSize)
	srv := httpd.NewServer(s.io, httpd.ServerConfig{
		CacheBytes: 1 << 20,
		Lifecycle:  &lc,
	})
	s.serve(t, srv)
	return s, srv
}

// readUntilClosed drains fd until EOF or error, returning everything read.
func readUntilClosed(io interface {
	SockRead(kernel.FD, []byte) core.M[int]
}, fd kernel.FD, out *[]byte) core.M[core.Unit] {
	buf := make([]byte, 4096)
	var loop func() core.M[core.Unit]
	loop = func() core.M[core.Unit] {
		return core.Bind(io.SockRead(fd, buf), func(n int) core.M[core.Unit] {
			if n == 0 {
				return core.Skip
			}
			*out = append(*out, buf[:n]...)
			return loop()
		})
	}
	return loop()
}

func TestLifecycleIdleReapFreshConnection(t *testing.T) {
	// A connection that never sends a byte is reaped at IdleTimeout.
	s, srv := lifecycleSite(t, 1, 512, httpd.LifecycleConfig{
		IdleTimeout: 10 * time.Millisecond,
	})
	var closed bool
	client := core.Bind(s.io.SockConnect("web:80"), func(fd kernel.FD) core.M[core.Unit] {
		return core.Bind(s.io.SockRead(fd, make([]byte, 64)), func(n int) core.M[core.Unit] {
			closed = n == 0
			return s.io.CloseFD(fd)
		})
	})
	runAndWait(s.rt, core.Catch(client, func(error) core.M[core.Unit] {
		closed = true
		return core.Skip
	}))
	if !closed {
		t.Fatal("idle connection was never torn down")
	}
	if got := sheds(srv); got != [4]int64{1, 0, 0, 0} {
		t.Fatalf("lifecycle stats = %+v, want exactly one idle reap", got)
	}
	if got := time.Duration(s.clk.Now()); got < 10*time.Millisecond {
		t.Fatalf("reaped at %v, before the 10ms idle budget", got)
	}
}

func TestLifecycleIdleReapBetweenRequests(t *testing.T) {
	// A keep-alive connection that goes quiet after a completed request is
	// reaped, and the completed request is unaffected.
	s, srv := lifecycleSite(t, 1, 512, httpd.LifecycleConfig{
		IdleTimeout: 10 * time.Millisecond,
	})
	var got []byte
	client := core.Bind(s.io.SockConnect("web:80"), func(fd kernel.FD) core.M[core.Unit] {
		req := []byte("GET /file-0 HTTP/1.1\r\nHost: x\r\n\r\n")
		return core.Seq(
			core.Bind(s.io.SockSend(fd, req), func(int) core.M[core.Unit] { return core.Skip }),
			readUntilClosed(s.io, fd, &got), // EOF arrives only via the reap
			s.io.CloseFD(fd),
		)
	})
	runAndWait(s.rt, core.Catch(client, func(error) core.M[core.Unit] { return core.Skip }))
	status, length, err := httpd.ParseResponseHead(string(got))
	if err != nil || status != 200 || length != 512 {
		t.Fatalf("request before the idle gap: status=%d length=%d err=%v", status, length, err)
	}
	if st := sheds(srv); st != [4]int64{1, 0, 0, 0} {
		t.Fatalf("lifecycle stats = %+v, want exactly one idle reap", st)
	}
}

func TestLifecycleSlowLorisShed(t *testing.T) {
	// A peer trickling header bytes renews any per-read deadline forever;
	// the header budget is total, so it is shed on schedule.
	s, srv := lifecycleSite(t, 1, 512, httpd.LifecycleConfig{
		HeaderTimeout: 20 * time.Millisecond,
	})
	head := []byte("GET /file-0 HTTP/1.1\r\nHost: x\r\n\r\n")
	var sent int
	var closed bool
	client := core.Bind(s.io.SockConnect("web:80"), func(fd kernel.FD) core.M[core.Unit] {
		var drip func(i int) core.M[core.Unit]
		drip = func(i int) core.M[core.Unit] {
			if i >= len(head) {
				// The full head went through — the shed failed.
				return s.io.CloseFD(fd)
			}
			return core.Seq(
				core.Bind(
					core.Catch(s.io.SockSend(fd, head[i:i+1]), func(error) core.M[int] {
						closed = true
						return core.Return(0)
					}),
					func(n int) core.M[core.Unit] { sent += n; return core.Skip },
				),
				func() core.M[core.Unit] {
					if closed {
						return core.Skip
					}
					return core.Then(s.io.Sleep(5*time.Millisecond), drip(i+1))
				}(),
			)
		}
		return drip(0)
	})
	runAndWait(s.rt, core.Catch(client, func(error) core.M[core.Unit] {
		closed = true
		return core.Skip
	}))
	if !closed {
		t.Fatalf("slow-loris client sent the whole head (%d bytes) without being shed", sent)
	}
	if sent >= len(head) {
		t.Fatalf("all %d header bytes accepted before shed", sent)
	}
	if st := sheds(srv); st != [4]int64{0, 1, 0, 0} {
		t.Fatalf("lifecycle stats = %+v, want exactly one header shed", st)
	}
}

func TestLifecycleSlowButLegitimateHeaderSurvives(t *testing.T) {
	// A head split across a few reads that completes inside the budget is
	// served normally — the defense keys on total time, not chunking.
	s, srv := lifecycleSite(t, 1, 512, httpd.LifecycleConfig{
		HeaderTimeout: 50 * time.Millisecond,
	})
	head := []byte("GET /file-0 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
	half := len(head) / 2
	var got []byte
	client := core.Bind(s.io.SockConnect("web:80"), func(fd kernel.FD) core.M[core.Unit] {
		return core.Seq(
			core.Bind(s.io.SockSend(fd, head[:half]), func(int) core.M[core.Unit] { return core.Skip }),
			s.io.Sleep(10*time.Millisecond),
			core.Bind(s.io.SockSend(fd, head[half:]), func(int) core.M[core.Unit] { return core.Skip }),
			readUntilClosed(s.io, fd, &got),
			s.io.CloseFD(fd),
		)
	})
	runAndWait(s.rt, client)
	status, length, err := httpd.ParseResponseHead(string(got))
	if err != nil || status != 200 || length != 512 {
		t.Fatalf("status=%d length=%d err=%v", status, length, err)
	}
	if st := sheds(srv); st != [4]int64{} {
		t.Fatalf("lifecycle stats = %+v, want no sheds", st)
	}
}

func TestLifecycleBodyDrainKeepsFraming(t *testing.T) {
	// A request body (Content-Length) is drained so the pipelined request
	// behind it is parsed from the right offset. Without the drain the
	// body bytes would be misread as the next head. The stream is the same
	// in every case; what varies is where the reads fall — each segment is
	// sent after the server has consumed the one before.
	post := "POST /file-0 HTTP/1.1\r\nHost: x\r\nContent-Length: 300\r\n\r\n"
	body := strings.Repeat("x", 300)
	get := "GET /file-0 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
	for _, tc := range []struct {
		name     string
		segments []string
	}{
		{"one read holds everything", []string{post + body + get}},
		{"body tail and next head share a read", []string{post + body[:100], body[100:] + get}},
		{"body ends at a read boundary", []string{post + body[:100], body[100:], get}},
	} {
		s, srv := lifecycleSite(t, 1, 512, httpd.LifecycleConfig{
			BodyTimeout: 50 * time.Millisecond,
		})
		var got []byte
		client := core.Bind(s.io.SockConnect("web:80"), func(fd kernel.FD) core.M[core.Unit] {
			return core.Seq(
				core.ForN(len(tc.segments), func(i int) core.M[core.Unit] {
					return core.Then(s.io.SockSend(fd, []byte(tc.segments[i])), s.io.Sleep(time.Millisecond))
				}),
				readUntilClosed(s.io, fd, &got),
				s.io.CloseFD(fd),
			)
		})
		runAndWait(s.rt, client)
		var statuses []int
		rest := got
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
			if cl < 0 {
				cl = 0
			}
			rest = rest[i+4+int(cl):]
		}
		if len(statuses) != 2 || statuses[0] != 405 || statuses[1] != 200 {
			t.Fatalf("%s: statuses = %v, want [405 200] (drained body, then pipelined GET)", tc.name, statuses)
		}
		if st := sheds(srv); st != [4]int64{} {
			t.Fatalf("%s: lifecycle stats = %+v, want no sheds", tc.name, st)
		}
	}
}

func TestLifecycleTrickledBodyShed(t *testing.T) {
	// A peer that declares a body and then stalls is shed at BodyTimeout.
	s, srv := lifecycleSite(t, 1, 512, httpd.LifecycleConfig{
		BodyTimeout: 20 * time.Millisecond,
	})
	head := []byte("POST /file-0 HTTP/1.1\r\nHost: x\r\nContent-Length: 1000\r\n\r\nonly-ten-b")
	var closed bool
	client := core.Bind(s.io.SockConnect("web:80"), func(fd kernel.FD) core.M[core.Unit] {
		return core.Seq(
			core.Bind(s.io.SockSend(fd, head), func(int) core.M[core.Unit] { return core.Skip }),
			core.Bind(s.io.SockRead(fd, make([]byte, 256)), func(n int) core.M[core.Unit] {
				closed = n == 0
				return s.io.CloseFD(fd)
			}),
		)
	})
	runAndWait(s.rt, core.Catch(client, func(error) core.M[core.Unit] {
		closed = true
		return core.Skip
	}))
	if !closed {
		t.Fatal("stalled body sender was never torn down")
	}
	if st := sheds(srv); st != [4]int64{0, 0, 1, 0} {
		t.Fatalf("lifecycle stats = %+v, want exactly one body shed", st)
	}
}

func TestLifecycleWriteStallShed(t *testing.T) {
	// A peer that requests a large file and stops reading pins the
	// response in the socket buffer; once no write completes for
	// WriteStallTimeout the connection is shed.
	s, srv := lifecycleSite(t, 1, 256*1024, httpd.LifecycleConfig{
		WriteStallTimeout: 20 * time.Millisecond,
	})
	var clientDone bool
	client := core.Bind(s.io.SockConnect("web:80"), func(fd kernel.FD) core.M[core.Unit] {
		req := []byte("GET /file-0 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
		return core.Seq(
			core.Bind(s.io.SockSend(fd, req), func(int) core.M[core.Unit] { return core.Skip }),
			// Read nothing: park until the server gives up, then observe
			// the teardown via our own close.
			s.io.Sleep(200*time.Millisecond),
			core.Do(func() { clientDone = true }),
			s.io.CloseFD(fd),
		)
	})
	runAndWait(s.rt, core.Catch(client, func(error) core.M[core.Unit] {
		clientDone = true
		return core.Skip
	}))
	if !clientDone {
		t.Fatal("client never finished")
	}
	if st := sheds(srv); st != [4]int64{0, 0, 0, 1} {
		t.Fatalf("lifecycle stats = %+v, want exactly one write-stall shed", st)
	}
}

func TestLifecycleSlowReaderSurvivesWriteStall(t *testing.T) {
	// A legitimately slow reader keeps the write-stall deadline renewed:
	// each completed write re-arms it, so steady sub-deadline progress is
	// never shed even when the whole transfer takes many times the budget.
	s, srv := lifecycleSite(t, 1, 256*1024, httpd.LifecycleConfig{
		WriteStallTimeout: 20 * time.Millisecond,
	})
	var total int
	client := core.Bind(s.io.SockConnect("web:80"), func(fd kernel.FD) core.M[core.Unit] {
		req := []byte("GET /file-0 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
		buf := make([]byte, 16*1024)
		var loop func() core.M[core.Unit]
		loop = func() core.M[core.Unit] {
			return core.Bind(s.io.SockRead(fd, buf), func(n int) core.M[core.Unit] {
				if n == 0 {
					return s.io.CloseFD(fd)
				}
				total += n
				// Drain in 16 KB sips, 10ms apart: the transfer takes
				// ~170ms against a 20ms stall budget.
				return core.Then(s.io.Sleep(10*time.Millisecond), loop())
			})
		}
		return core.Seq(
			core.Bind(s.io.SockSend(fd, req), func(int) core.M[core.Unit] { return core.Skip }),
			loop(),
		)
	})
	runAndWait(s.rt, client)
	if total < 256*1024 {
		t.Fatalf("slow reader got %d bytes, want full 256 KB response", total)
	}
	if st := sheds(srv); st != [4]int64{} {
		t.Fatalf("lifecycle stats = %+v, want no sheds", st)
	}
}

func TestLifecycleWellBehavedLoadUnaffected(t *testing.T) {
	// A normal workload under the full lifecycle config sees zero sheds
	// and identical results.
	s, srv := lifecycleSite(t, 8, 2048, httpd.LifecycleConfig{
		IdleTimeout:       200 * time.Millisecond,
		HeaderTimeout:     100 * time.Millisecond,
		BodyTimeout:       100 * time.Millisecond,
		WriteStallTimeout: 100 * time.Millisecond,
	})
	gen := loadgen.New(s.io, loadgen.Config{
		Addr: "web:80", Clients: 8, Files: 8, RequestsPerClient: 6, Seed: 7,
	})
	runAndWait(s.rt, gen.Run())
	if gen.Errors.Load() != 0 {
		t.Fatalf("client errors: %d", gen.Errors.Load())
	}
	if got := gen.Requests.Load(); got != 48 {
		t.Fatalf("requests = %d, want 48", got)
	}
	if st := sheds(srv); st != [4]int64{} {
		t.Fatalf("lifecycle stats = %+v, want no sheds under a well-behaved load", st)
	}
}

func TestLifecycleOverTCPStackShedsIdle(t *testing.T) {
	// The same defenses work over the application-level TCP transport,
	// where Shed aborts the connection (RST) instead of closing an FD —
	// no TIME_WAIT lingers for the attacker.
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
	if _, err := fs.Create("file-0", 512, false); err != nil {
		t.Fatal(err)
	}
	rt := core.NewRuntime(core.Options{Workers: 1, Clock: clk})
	io := hio.New(rt, k, fs)
	defer rt.Shutdown()

	srv := httpd.NewServer(io, httpd.ServerConfig{
		Lifecycle: &httpd.LifecycleConfig{IdleTimeout: 10 * time.Millisecond},
	})
	l, err := stackS.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	rt.Spawn(srv.ServeTCP(l))

	var torndown bool
	client := core.Bind(stackC.ConnectM("server", 80), func(c *tcp.Conn) core.M[core.Unit] {
		// Say nothing; the idle reap aborts the connection and our
		// blocked read observes the reset (or EOF).
		return core.Catch(
			core.Bind(c.ReadM(make([]byte, 64)), func(n int) core.M[core.Unit] {
				torndown = n == 0
				return c.CloseM()
			}),
			func(error) core.M[core.Unit] {
				torndown = true
				return core.Skip
			},
		)
	})
	runAndWait(rt, client)
	if !torndown {
		t.Fatal("idle TCP connection was never torn down")
	}
	if st := sheds(srv); st != [4]int64{1, 0, 0, 0} {
		t.Fatalf("lifecycle stats = %+v, want exactly one idle reap", st)
	}
}

// sheds reads the server's lifecycle counters in phase order: idle reaps,
// then header, body and write-stall sheds.
func sheds(srv *httpd.Server) [4]int64 {
	s := srv.Metrics().Snapshot()
	return [4]int64{s.Counter("reaped_idle"), s.Counter("shed_header"),
		s.Counter("shed_body"), s.Counter("shed_write")}
}

func lifecycleCounterRun(t *testing.T, seed uint64) [4]int64 {
	t.Helper()
	s, srv := lifecycleSite(t, 4, 1024, httpd.LifecycleConfig{
		IdleTimeout:   15 * time.Millisecond,
		HeaderTimeout: 15 * time.Millisecond,
	})
	// Mix of idlers (connect, never speak) and one well-behaved client.
	idler := func() core.M[core.Unit] {
		return core.Bind(s.io.SockConnect("web:80"), func(fd kernel.FD) core.M[core.Unit] {
			return core.Catch(
				core.Bind(s.io.SockRead(fd, make([]byte, 16)), func(int) core.M[core.Unit] {
					return s.io.CloseFD(fd)
				}),
				func(error) core.M[core.Unit] { return core.Skip },
			)
		})
	}
	gen := loadgen.New(s.io, loadgen.Config{
		Addr: "web:80", Clients: 2, Files: 4, RequestsPerClient: 3, Seed: seed,
	})
	done := make(chan struct{}, 3)
	for i := 0; i < 3; i++ {
		s.rt.Spawn(core.Then(idler(), core.Do(func() { done <- struct{}{} })))
	}
	runAndWait(s.rt, gen.Run())
	for i := 0; i < 3; i++ {
		<-done
	}
	if gen.Errors.Load() != 0 {
		t.Fatalf("well-behaved clients saw %d errors", gen.Errors.Load())
	}
	return sheds(srv)
}

func TestLifecycleCountersDeterministic(t *testing.T) {
	// Two identical runs on fresh virtual worlds produce identical shed
	// and reap counters — the defense is replayable, not racy.
	a := lifecycleCounterRun(t, 21)
	b := lifecycleCounterRun(t, 21)
	if a != b {
		t.Fatalf("lifecycle counters diverged: %+v vs %+v", a, b)
	}
	if a[0] != 3 {
		t.Fatalf("reaped %d idlers, want all 3", a[0])
	}
}
