package httpd_test

import (
	"strings"
	"testing"
	"time"

	"hybrid/internal/core"
	"hybrid/internal/faults"
	"hybrid/internal/httpd"
	"hybrid/internal/kernel"
	"hybrid/internal/loadgen"
)

// acceptN accepts exactly n connections and forks a handler for each,
// then lets the acceptor thread terminate — unlike AcceptLoop, which
// parks forever, this leaves the runtime able to reach WaitIdle.
func acceptN(s *site, srv *httpd.Server, addr string, n int) core.M[core.Unit] {
	return core.Bind(s.io.Listen(addr, 1024), func(lfd kernel.FD) core.M[core.Unit] {
		return core.ForN(n, func(int) core.M[core.Unit] {
			return core.Bind(s.io.SockAccept(lfd), func(conn kernel.FD) core.M[core.Unit] {
				return core.Fork(srv.ServeTransport(httpd.SockTransport{IO: s.io, FD: conn}))
			})
		})
	})
}

// waitIdleOrFatal asserts the runtime quiesces — the acceptance criterion
// that degradation must not wedge or leak threads.
func waitIdleOrFatal(t *testing.T, s *site) {
	t.Helper()
	waitLiveOrFatal(t, s, 0)
}

// waitLiveOrFatal asserts the runtime quiesces to n live threads — a
// server started with ListenAndServe keeps its accept loop parked, so 1
// is "every connection thread retired".
func waitLiveOrFatal(t *testing.T, s *site, n int64) {
	t.Helper()
	quiet := make(chan struct{})
	go func() { s.rt.WaitLive(n); close(quiet) }()
	select {
	case <-quiet:
	case <-time.After(30 * time.Second):
		t.Fatalf("WaitLive(%d) wedged: %d threads still live", n, s.rt.Live())
	}
}

// TestServerDegradesUnderDiskFaults drives the full stack with a hostile
// disk: transient EIO on half of all reads. With DiskRetries set the
// server must keep serving (2xx present), answer dead files with 503
// instead of tearing connections, count its retries, and quiesce.
func TestServerDegradesUnderDiskFaults(t *testing.T) {
	const clients = 8
	s := newSite(t, 8, 4096)
	in := faults.New(faults.Config{
		Seed:  7,
		Rates: map[faults.Op]float64{faults.DiskRead: 0.5},
	}, s.clk)
	s.fs.Disk().SetFaults(in)

	srv := httpd.NewServer(s.io, httpd.ServerConfig{
		CacheBytes:  1, // force every GET through the disk path
		DiskRetries: 2,
	})
	s.rt.Spawn(acceptN(s, srv, "web:80", clients))

	gen := loadgen.New(s.io, loadgen.Config{
		Addr: "web:80", Clients: clients, Files: 8, RequestsPerClient: 8, Seed: 7,
	})
	done := make(chan struct{})
	s.rt.Spawn(core.Then(gen.Run(), core.Do(func() { close(done) })))
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("workload wedged under disk faults")
	}

	if in.Injected(faults.DiskRead) == 0 {
		t.Fatal("fault plan injected nothing; test is vacuous")
	}
	if gen.Statuses[2].Load() == 0 {
		t.Fatal("no 2xx at all: server failed outright instead of degrading")
	}
	if gen.Statuses[5].Load() == 0 {
		t.Fatal("no 503 observed by clients despite exhausted retries")
	}
	snap := srv.Metrics().Snapshot()
	if snap.Counter("disk_retries") == 0 {
		t.Fatal("disk_retries counter never incremented")
	}
	if snap.Counter("resp_503") == 0 {
		t.Fatal("resp_503 counter never incremented")
	}
	if snap.Counter("disk_errors") == 0 {
		t.Fatal("disk_errors counter never incremented")
	}
	// Retries are bounded: at most DiskRetries per read attempt chain.
	reads := s.fs.Disk().Snapshot().Requests
	if max := reads * 2; snap.Counter("disk_retries") > int64(max) {
		t.Fatalf("disk_retries = %d exceeds bound %d", snap.Counter("disk_retries"), max)
	}
	waitIdleOrFatal(t, s)
}

// TestUncachedCloseIsAnnounced: a response the server will close after
// must say so. The disk path used to render "Connection: keep-alive"
// whatever the request asked for, and then close.
func TestUncachedCloseIsAnnounced(t *testing.T) {
	for _, req := range []string{
		"GET /file-0 HTTP/1.0\r\n\r\n",
		"GET /file-0 HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
	} {
		for _, retries := range []int{0, 2} {
			s := newSite(t, 1, 1024)
			srv := httpd.NewServer(s.io, httpd.ServerConfig{CacheBytes: 1 << 20, DiskRetries: retries})
			tr := &replayTransport{chunks: [][]byte{[]byte(req)}}
			runAndWait(s.rt, srv.ServeTransport(tr))
			head, _, _ := strings.Cut(tr.out.String(), "\r\n\r\n")
			if tr.closes != 1 || srv.Metrics().Snapshot().Counter("aio_serves") != 1 {
				t.Fatalf("DiskRetries=%d %q: closes=%d, want one close after one disk serve", retries, req, tr.closes)
			}
			if !strings.HasSuffix(head, "Connection: close") {
				t.Errorf("DiskRetries=%d %q: closed after answering\n%s", retries, req, head)
			}
		}
	}
}

// TestServerFaultFreeDegradationIsInvisible: with a fault-free disk, a
// server configured with retries serves exactly like the plain one.
func TestServerFaultFreeDegradationIsInvisible(t *testing.T) {
	s := newSite(t, 4, 1024)
	srv := httpd.NewServer(s.io, httpd.ServerConfig{
		CacheBytes:  1 << 20,
		DiskRetries: 2,
	})
	s.rt.Spawn(acceptN(s, srv, "web:80", 1))
	gen := loadgen.New(s.io, loadgen.Config{
		Addr: "web:80", Clients: 1, Files: 4, RequestsPerClient: 8, Seed: 42,
	})
	done := make(chan struct{})
	s.rt.Spawn(core.Then(gen.Run(), core.Do(func() { close(done) })))
	<-done
	if gen.Errors.Load() != 0 || gen.Statuses[2].Load() != 8 {
		t.Fatalf("errors=%d 2xx=%d, want 0/8", gen.Errors.Load(), gen.Statuses[2].Load())
	}
	snap := srv.Metrics().Snapshot()
	if snap.Counter("disk_retries") != 0 || snap.Counter("resp_503") != 0 {
		t.Fatalf("phantom degradation: retries=%d 503s=%d",
			snap.Counter("disk_retries"), snap.Counter("resp_503"))
	}
	waitIdleOrFatal(t, s)
}
