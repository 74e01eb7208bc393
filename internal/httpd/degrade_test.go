package httpd_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"hybrid/internal/bench"
	"hybrid/internal/core"
	"hybrid/internal/disk"
	"hybrid/internal/faults"
	"hybrid/internal/httpd"
	"hybrid/internal/kernel"
	"hybrid/internal/loadgen"
	"hybrid/internal/vclock"
)

// acceptN accepts exactly n connections and forks a handler for each,
// then lets the acceptor thread terminate — unlike BindAndServe's accept
// loop, which parks forever, this leaves the runtime able to reach
// WaitIdle.
func acceptN(s *site, srv *httpd.Server, addr string, n int) core.M[core.Unit] {
	lfd, err := s.k.Listen(addr, 1024)
	if err != nil {
		return core.Throw[core.Unit](err)
	}
	return core.ForN(n, func(int) core.M[core.Unit] {
		return core.Bind(s.io.SockAccept(lfd), func(conn kernel.FD) core.M[core.Unit] {
			return core.Fork(srv.ServeTransport(httpd.SockTransport{IO: s.io, FD: conn}))
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
// disk: transient EIO on half of all reads. The server must keep serving (2xx present), answer dead files with 503
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
		CacheBytes: 1, // force every GET through the disk path
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
	// Retries are bounded: at most two per read attempt chain.
	reads := s.fs.Disk().Metrics().Snapshot().Counter("requests")
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
		s := newSite(t, 1, 1024)
		srv := httpd.NewServer(s.io, httpd.ServerConfig{CacheBytes: 1 << 20})
		tr := &replayTransport{chunks: [][]byte{[]byte(req)}}
		runAndWait(s.rt, srv.ServeTransport(tr))
		head, _, _ := strings.Cut(tr.out.String(), "\r\n\r\n")
		if tr.closes != 1 || srv.Metrics().Snapshot().Counter("aio_serves") != 1 {
			t.Fatalf("%q: closes=%d, want one close after one disk serve", req, tr.closes)
		}
		if !strings.HasSuffix(head, "Connection: close") {
			t.Errorf("%q: closed after answering\n%s", req, head)
		}
	}
}

// TestServerFaultFreeDegradationIsInvisible: with a fault-free disk the
// retry and degrade arms never fire.
func TestServerFaultFreeDegradationIsInvisible(t *testing.T) {
	s := newSite(t, 4, 1024)
	srv := httpd.NewServer(s.io, httpd.ServerConfig{
		CacheBytes: 1 << 20,
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

// timedTransport is a replayTransport whose writes can fail from the
// failAt-th on (0: never), as a reset peer's do, and which notes the
// virtual time of its first write.
type timedTransport struct {
	replayTransport
	clk     vclock.Clock
	writes  int
	failAt  int
	firstAt vclock.Time
}

var errPeerReset = errors.New("test: connection reset by peer")

func (r *timedTransport) Write(p []byte) core.M[int] {
	return core.NBIOe(func() (int, error) {
		r.writes++
		if r.writes == 1 {
			r.firstAt = r.clk.Now()
		}
		if r.failAt > 0 && r.writes >= r.failAt {
			return 0, errPeerReset
		}
		r.out.Write(p)
		return len(p), nil
	})
}

// A stream that dies after its head must still give back an uncacheable
// file's pooled chunk: the client resets on the first body write of a
// three-chunk file the cache will not take.
func TestStreamThrownPastReturnsPooledChunk(t *testing.T) {
	s := newSite(t, 1, 48<<10)
	srv := httpd.NewServer(s.io, httpd.ServerConfig{CacheBytes: 1024})
	rest := bench.MarkQuiescence(s.rt, s.k, srv)
	tr := &timedTransport{replayTransport: replayTransport{chunks: [][]byte{
		[]byte("GET /file-0 HTTP/1.1\r\nHost: t\r\n\r\n")}}, clk: s.clk, failAt: 2}
	runAndWait(s.rt, srv.ServeTransport(tr))
	if errs := srv.Metrics().Snapshot().Counter("errors"); tr.writes != 2 || tr.closes != 1 || errs != 1 {
		t.Fatalf("writes=%d closes=%d errors=%d, want the reset on the body's first write to end the connection",
			tr.writes, tr.closes, errs)
	}
	if err := rest.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestDiskHardFaultsExact pins the retry budget and both failure outcomes
// on hard sector errors, whose verdict is a pure function of the block:
// a file whose first chunk is dead is read three times (two retries,
// 500 µs then 1 ms apart) and answered with a 503 that closes; a file
// dead only past its first chunk gets its head and first chunk, and then
// the connection ends with no 503 and its pooled buffers back.
func TestDiskHardFaultsExact(t *testing.T) {
	const (
		files     = 64
		fileBytes = 48 << 10 // three 16 KB chunks
		chunk     = 16 << 10
	)
	s := newSite(t, files, fileBytes)
	in := faults.New(faults.Config{Seed: 7, Rates: map[faults.Op]float64{faults.DiskHard: 0.03}}, s.clk)
	s.fs.Disk().SetFaults(in)

	// Files lie back to back from block 0; a chunk is dead if any of its
	// blocks is.
	dead := func(file, c int) bool {
		base := uint64(file * fileBytes / disk.BlockSize)
		for b := uint64(c * chunk / disk.BlockSize); b < uint64((c+1)*chunk/disk.BlockSize); b++ {
			if in.HardKey(faults.DiskHard, base+b) {
				return true
			}
		}
		return false
	}
	deadFirst, deadLater := -1, -1
	for i := 0; i < files; i++ {
		switch {
		case dead(i, 0):
			if deadFirst < 0 {
				deadFirst = i
			}
		case dead(i, 1) || dead(i, 2):
			if deadLater < 0 {
				deadLater = i
			}
		}
	}
	if deadFirst < 0 || deadLater < 0 {
		t.Fatalf("seed draws no file of each kind (dead first chunk %d, dead later chunk %d)", deadFirst, deadLater)
	}

	srv := httpd.NewServer(s.io, httpd.ServerConfig{CacheBytes: 1024}) // every chunk pooled
	rest := bench.MarkQuiescence(s.rt, s.k, srv)
	serve := func(file int) (*timedTransport, vclock.Time) {
		tr := &timedTransport{replayTransport: replayTransport{chunks: [][]byte{
			[]byte("GET /" + loadgen.FileName(file) + " HTTP/1.1\r\nHost: t\r\n\r\n")}}, clk: s.clk}
		start := s.clk.Now()
		runAndWait(s.rt, srv.ServeTransport(tr))
		return tr, start
	}

	reads0, snap0 := s.fs.Disk().Metrics().Snapshot().Counter("requests"), srv.Metrics().Snapshot()
	tr, start := serve(deadFirst)
	snap := srv.Metrics().Snapshot()
	delta := func(name string) int64 { return snap.Counter(name) - snap0.Counter(name) }
	if got := s.fs.Disk().Metrics().Snapshot().Counter("requests") - reads0; got != 3 {
		t.Errorf("dead first chunk: %d disk reads, want 3 (one try, two retries)", got)
	}
	if delta("disk_retries") != 2 || delta("disk_errors") != 1 || delta("resp_503") != 1 || delta("errors") != 0 {
		t.Errorf("dead first chunk: disk_retries +%d disk_errors +%d resp_503 +%d errors +%d, want +2 +1 +1 +0",
			delta("disk_retries"), delta("disk_errors"), delta("resp_503"), delta("errors"))
	}
	head, _, _ := strings.Cut(tr.out.String(), "\r\n\r\n")
	if !strings.HasPrefix(head, "HTTP/1.1 503 ") || !strings.HasSuffix(head, "Connection: close") || tr.closes != 1 {
		t.Errorf("dead first chunk: closes=%d, answered\n%s", tr.closes, head)
	}
	if waited := time.Duration(tr.firstAt - start); waited < 1500*time.Microsecond {
		t.Errorf("dead first chunk: answered %v after the request, want at least the 1.5 ms of backoff", waited)
	}

	snap0 = snap
	tr, _ = serve(deadLater)
	snap = srv.Metrics().Snapshot()
	head, body, _ := strings.Cut(tr.out.String(), "\r\n\r\n")
	if !strings.HasPrefix(head, "HTTP/1.1 200 ") || len(body) < chunk || len(body) >= fileBytes {
		t.Errorf("dead later chunk: %d body bytes after\n%s\nwant the 200 head and at least the first chunk, not the file", len(body), head)
	}
	if delta("resp_503") != 0 || delta("errors") != 1 || delta("disk_errors") != 1 || tr.closes != 1 {
		t.Errorf("dead later chunk: resp_503 +%d errors +%d disk_errors +%d closes %d, want +0 +1 +1 1",
			delta("resp_503"), delta("errors"), delta("disk_errors"), tr.closes)
	}
	if err := rest.Check(); err != nil {
		t.Fatal(err)
	}
}
