package httpd

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"hybrid/internal/bufpool"
	"hybrid/internal/core"
	"hybrid/internal/disk"
	"hybrid/internal/hio"
	"hybrid/internal/kernel"
	"hybrid/internal/vclock"
)

// Allocation pins for the per-request parsing hot path. Bounds are the
// measured cost with a little headroom — they exist to catch a change
// that quietly reintroduces per-request garbage (the first parser
// allocated a line slice, a field slice, and two lowered strings per
// header; the second a header map), not to lock in exact runtime
// internals.

const parseReq = "GET /file-123 HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\r\n"

func TestParseRequestAllocs(t *testing.T) {
	// Nothing: every field of the Request is a substring of head.
	var req Request
	n := testing.AllocsPerRun(500, func() {
		if err := ParseRequestInto(&req, parseReq); err != nil || req.Header("host") != "bench" {
			t.Fatal("parse failed")
		}
	})
	if n != 0 {
		t.Fatalf("ParseRequestInto allocates %v per run, want 0", n)
	}
}

func TestParseResponseHeadAllocs(t *testing.T) {
	// Nothing: the head is scanned in place (the load generator parses one
	// per request).
	const head = "HTTP/1.1 200 OK\r\nServer: hybrid/1.0\r\nContent-Length: 16384\r\nConnection: keep-alive\r\n\r\n"
	n := testing.AllocsPerRun(500, func() {
		if st, cl, err := ParseResponseHead(head); err != nil || st != 200 || cl != 16384 {
			t.Fatal("parse failed")
		}
	})
	if n != 0 {
		t.Fatalf("ParseResponseHead allocates %v per run, want 0", n)
	}
}

func TestKeepAliveAllocs(t *testing.T) {
	req, err := parse(parseReq)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(500, func() {
		if !req.KeepAlive() {
			t.Fatal("want keep-alive")
		}
	}); n != 0 {
		t.Fatalf("KeepAlive allocates %v per run, want 0", n)
	}
}

func TestResponseHeadMemoAllocs(t *testing.T) {
	// First render populates the memo; every later request for the same
	// (status, length, keep) triple must return the shared head.
	warm := ResponseHead(200, 16384, true)
	if n := testing.AllocsPerRun(500, func() {
		h := ResponseHead(200, 16384, true)
		if len(h) != len(warm) {
			t.Fatal("head changed")
		}
	}); n != 0 {
		t.Fatalf("memoized ResponseHead allocates %v per run, want 0", n)
	}
	// Out-of-range keys bypass the memo but still render correctly.
	if h := ResponseHead(200, 1<<53, true); !strings.Contains(string(h), "Content-Length: 9007199254740992") {
		t.Fatalf("unmemoized head wrong: %q", h)
	}
}

func TestHeadBufferSteadyStateAllocs(t *testing.T) {
	// A persistent connection reusing one HeadBuffer reaches a steady
	// state where feeding a head allocates nothing: the accumulation
	// buffer stops growing, and the head is a view of it (it was one
	// string copy per head while heads were copied out).
	hb := &HeadBuffer{}
	raw := []byte(parseReq)
	for i := 0; i < 4; i++ { // reach capacity steady state
		if _, err := hb.Feed(raw); err != nil {
			t.Fatal(err)
		}
	}
	n := testing.AllocsPerRun(500, func() {
		head, err := hb.Feed(raw)
		if err != nil || head == "" {
			t.Fatal("no head")
		}
	})
	if n != 0 {
		t.Fatalf("steady-state Feed allocates %v per run, want 0", n)
	}
}

// shedCount is a Shedder that counts its sheds.
type shedCount int

func (s *shedCount) Shed() { *s++ }

func TestAllocLifecycleRearm(t *testing.T) {
	// A watched connection's deadline is one owned clock timer, bound at
	// its first arm: every later phase transition re-arms or stops it in
	// place, so a keep-alive request's whole cycle allocates nothing.
	clk := vclock.NewVirtual()
	rt := core.NewRuntime(core.Options{Workers: 1, Clock: clk})
	defer rt.Shutdown()
	s := NewServer(hio.New(rt, kernel.New(clk), nil), ServerConfig{Lifecycle: &LifecycleConfig{
		IdleTimeout:       time.Second,
		HeaderTimeout:     time.Second,
		WriteStallTimeout: time.Second,
	}})
	var sheds shedCount
	w := &connWatch{s: s, sh: &sheds, lc: s.cfg.Lifecycle}
	clk.Enter() // time stands still: no deadline fires
	defer clk.Exit()
	w.toIdle()
	if n := testing.AllocsPerRun(1000, func() {
		w.onBytes()
		w.toWrite()
		w.progress()
		w.toIdle()
	}); n != 0 {
		t.Fatalf("lifecycle re-arm cycle allocates %v per request, want 0", n)
	}
	w.cancel()
	if sheds != 0 {
		t.Fatalf("the watch shed %d times while time stood still", sheds)
	}
}

// missTransport replays one GET per request head and discards what the
// server writes; a read past the last head ends the stream.
type missTransport struct {
	heads [][]byte
	wrote int
}

func (m *missTransport) Read(p []byte) core.M[int] {
	return core.NBIO(func() int {
		if len(m.heads) == 0 {
			return 0
		}
		n := copy(p, m.heads[0])
		m.heads = m.heads[1:]
		return n
	})
}

// Write is one NBIO node per application, built directly: three objects,
// what SockTransport's Write costs, where core.NBIO's spelling costs four.
func (m *missTransport) Write(p []byte) core.M[int] {
	return func(k func(int) core.Trace) core.Trace {
		return &core.NBIONode{Effect: func() core.Trace { m.wrote += len(p); return k(len(p)) }}
	}
}

func (m *missTransport) WriteCell(cell *[]byte) core.M[int] {
	return core.NBIO(func() int { m.wrote += len(*cell); return len(*cell) })
}

func (m *missTransport) Close() core.M[core.Unit] { return core.Skip }

func TestAllocDiskMiss(t *testing.T) {
	// A cache-missing GET: the open (one sys_blio call), one AIO read
	// into the cache-bound destination, the head and body writes, and the
	// cache fill. Each request names a file no earlier one did, so every
	// one takes the disk path; a connection serves perConn of them, its
	// own set-up spread over them. The cache never fills, so nothing is
	// evicted and every fill makes its buffer and its entry record
	// (TestAllocDiskMissRecycles pins a full cache, where they are
	// recycled). It measures 47.5; 48.5 while each request head was
	// copied out of the read buffer, and 60.6 with the open inside a Catch
	// frame and each read behind a throwing Bind.
	if bufpool.RaceChecked {
		t.Skip("allocation counts differ under the race detector")
	}
	const perConn, runs, fileBytes = 64, 10, 16 << 10
	clk := vclock.NewVirtual()
	fs := kernel.NewFS(disk.New(clk, disk.DefaultGeometry()))
	heads := make([][]byte, (runs+1)*perConn) // AllocsPerRun adds a warm-up run
	for i := range heads {
		name := fmt.Sprintf("file-%d", i)
		if _, err := fs.Create(name, fileBytes, false); err != nil {
			t.Fatal(err)
		}
		heads[i] = []byte("GET /" + name + " HTTP/1.1\r\nHost: t\r\n\r\n")
	}
	rt := core.NewRuntime(core.Options{Workers: 1, Clock: clk})
	defer rt.Shutdown()
	s := NewServer(hio.New(rt, kernel.New(clk), fs), ServerConfig{})
	tr := &missTransport{}
	served := 0
	total := testing.AllocsPerRun(runs, func() {
		tr.heads = heads[served : served+perConn]
		served += perConn
		rt.Run(s.ServeTransport(tr))
	})
	if got := s.aioServes.Load(); got != uint64(served) || tr.wrote < served*fileBytes {
		t.Fatalf("%d disk serves and %d bytes written for %d requests", got, tr.wrote, served)
	}
	const maxPerRequest = 8
	if per := total / perConn; per > maxPerRequest {
		t.Fatalf("a cache-missing GET allocates %.2f per request, want <= %d", per, maxPerRequest)
	} else {
		t.Logf("a cache-missing GET: %.2f allocs", per)
	}
}

func TestAllocDiskMissRecycles(t *testing.T) {
	// A cache-missing GET in a full cache: each miss evicts an entry the
	// cache filled and no Get returned, and a later miss reads into that
	// entry's buffer instead of allocating one, so a miss allocates its
	// bookkeeping and no body. It was about 17 KB per miss while every
	// fill made its own 16 KB buffer.
	if bufpool.RaceChecked {
		t.Skip("allocation counts differ under the race detector")
	}
	const perConn, conns, fileBytes = 64, 8, 16 << 10
	clk := vclock.NewVirtual()
	fs := kernel.NewFS(disk.New(clk, disk.DefaultGeometry()))
	heads := make([][]byte, (conns+1)*perConn) // the first connection warms the cache
	for i := range heads {
		name := fmt.Sprintf("file-%d", i)
		if _, err := fs.Create(name, fileBytes, false); err != nil {
			t.Fatal(err)
		}
		heads[i] = []byte("GET /" + name + " HTTP/1.1\r\nHost: t\r\n\r\n")
	}
	rt := core.NewRuntime(core.Options{Workers: 1, Clock: clk})
	defer rt.Shutdown()
	s := NewServer(hio.New(rt, kernel.New(clk), fs), ServerConfig{CacheBytes: 4 * fileBytes})
	tr := &missTransport{}
	serve := func(c int) {
		tr.heads = heads[c*perConn : (c+1)*perConn]
		rt.Run(s.ServeTransport(tr))
	}
	serve(0)
	_, _, evicted := s.cache.Stats()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for c := 1; c <= conns; c++ {
		serve(c)
	}
	runtime.ReadMemStats(&after)
	_, _, evictions := s.cache.Stats()
	const misses = conns * perConn
	if got := s.aioServes.Load(); got != uint64(len(heads)) || evictions-evicted != misses {
		t.Fatalf("%d disk serves and %d evictions, want %d and %d", got, evictions-evicted, len(heads), misses)
	}
	const maxObjectsPerMiss, maxBytesPerMiss = 4, 512
	objects := float64(after.Mallocs-before.Mallocs) / misses
	bytes := (after.TotalAlloc - before.TotalAlloc) / misses
	if objects > maxObjectsPerMiss || bytes > maxBytesPerMiss {
		t.Fatalf("a cache-missing GET in a full cache allocates %.2f objects and %d B, want <= %d and <= %d",
			objects, bytes, maxObjectsPerMiss, maxBytesPerMiss)
	}
	t.Logf("a cache-missing GET in a full cache: %.2f objects, %d B", objects, bytes)
}
