package httpd_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"hybrid/internal/bench"
	"hybrid/internal/core"
	"hybrid/internal/httpd"
	"hybrid/internal/kernel"
)

// There is one serve loop, so what used to be checked path against path
// is checked lattice point against lattice point: the same scripted
// request stream goes through the plain server and through each
// configuration layer (and all of them together), and every point must
// write the bytes, count the counters and leave the quiescent state that
// a model built here — from ResponseHead, the status lines and
// kernel.FillPattern, not from the server — says it should.

// replayTransport feeds scripted read chunks and records everything
// written. Chunks must fit the server's read buffer. It can be shed, so
// a lifecycle watch is really armed on it.
type replayTransport struct {
	chunks [][]byte
	i      int
	out    bytes.Buffer
	cells  int // writes that took the by-reference path
	closes int
}

func (r *replayTransport) Read(p []byte) core.M[int] {
	return core.NBIO(func() int {
		if r.i >= len(r.chunks) {
			return 0
		}
		c := r.chunks[r.i]
		r.i++
		return copy(p, c)
	})
}

func (r *replayTransport) Write(p []byte) core.M[int] {
	return core.NBIO(func() int {
		r.out.Write(p)
		return len(p)
	})
}

func (r *replayTransport) WriteCell(cell *[]byte) core.M[int] {
	return core.NBIO(func() int {
		r.cells++
		r.out.Write(*cell)
		return len(*cell)
	})
}

func (r *replayTransport) Close() core.M[core.Unit] {
	return core.Do(func() { r.closes++ })
}

func (r *replayTransport) Shed() {}

const latticeFileBytes = 1024

// requestTemplates is the request mix scripts draw from.
var requestTemplates = []string{
	"GET /file-0 HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\r\n",
	"GET /file-1 HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\r\n",
	"GET /missing HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\r\n",
	"HEAD /file-0 HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\r\n",
	"POST /file-0 HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\r\n",
	"GET /file-0 HTTP/1.0\r\n\r\n", // no keep-alive: closes the connection
	"GET /../file-0 HTTP/1.1\r\nHost: t\r\n\r\n",
	"GET /file-1 HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
	"NONSENSE\r\n\r\n", // malformed: the connection's exception path
	"GET /empty HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\r\n", // a 0-byte file
	// A declared body: drained, or its bytes are the next head.
	"POST /file-0 HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\nConnection: keep-alive\r\n\r\nhello",
}

// latticeFiles is the document tree: name to size.
var latticeFiles = map[string]int64{"file-0": latticeFileBytes, "file-1": latticeFileBytes, "empty": 0}

// script turns selector bytes into a chunked request stream: each byte
// picks a template, and its value mod 3 says whether the head arrives
// split across two reads, pipelined behind the previous one, or whole.
func script(sel []byte) (reqs []string, chunks [][]byte) {
	for _, b := range sel {
		req := requestTemplates[int(b)%len(requestTemplates)]
		reqs = append(reqs, req)
		cut := int(b) % len(req)
		switch last := len(chunks) - 1; {
		case b%3 == 0 && cut > 0:
			chunks = append(chunks, []byte(req[:cut]), []byte(req[cut:]))
		case b%3 == 1 && last >= 0 && len(chunks[last])+len(req) <= 4096:
			chunks[last] = append(chunks[last], req...)
		default:
			chunks = append(chunks, []byte(req))
		}
	}
	return reqs, chunks
}

// served is what one connection must have produced: the bytes, and the
// requests / bytes_out / cached_serves / aio_serves / errors counters
// with the number of by-reference writes.
type served struct {
	out []byte
	counts
}

type counts struct{ requests, bytesOut, cached, aio, errors, cells int64 }

// model answers reqs the way the HTTP subset says to, with a cache that
// holds every file once it has been streamed.
func model(reqs []string) served {
	var m served
	cache := map[string]bool{}
	respond := func(status int, reason string, keep bool) {
		body := fmt.Sprintf("%d %s\n", status, reason)
		m.out = append(m.out, httpd.ResponseHead(status, int64(len(body)), keep)...)
		m.out = append(m.out, body...)
	}
	for _, req := range reqs {
		line, _, _ := strings.Cut(req, "\r\n")
		f := strings.Fields(line)
		if len(f) != 3 {
			m.errors++
			return m
		}
		method, name := f[0], strings.TrimPrefix(f[1], "/")
		keep := f[2] == "HTTP/1.1" && !strings.Contains(req, "Connection: close")
		size, exists := latticeFiles[name]
		m.requests++
		switch {
		case method != "GET" && method != "HEAD":
			respond(405, "Method Not Allowed", keep)
		case strings.Contains(name, ".."):
			respond(400, "Bad Request", keep)
		case !exists:
			respond(404, "Not Found", keep)
		case method == "HEAD":
			m.out = append(m.out, httpd.ResponseHead(200, size, keep)...)
		default:
			m.out = append(m.out, httpd.ResponseHead(200, size, keep)...)
			m.out = append(m.out, make([]byte, size)...)
			kernel.FillPattern(m.out[len(m.out)-int(size):], name, 0)
			m.bytesOut += size
			if cache[name] {
				m.cached++
				m.cells += 2
			} else {
				m.aio++
				cache[name] = true
			}
		}
		if !keep {
			return m
		}
	}
	return m
}

// latticePoints are the configuration layers, each alone and all at once.
func latticePoints() map[string]httpd.ServerConfig {
	lc := &httpd.LifecycleConfig{IdleTimeout: time.Hour, HeaderTimeout: time.Hour,
		BodyTimeout: time.Hour, WriteStallTimeout: time.Hour}
	return map[string]httpd.ServerConfig{
		"plain":     {},
		"lifecycle": {Lifecycle: lc},
		"overload":  {Overload: &httpd.OverloadConfig{Backlog: 8}},
		"all":       {Lifecycle: lc, Overload: &httpd.OverloadConfig{Backlog: 8}},
	}
}

// serveScript runs one chunked stream through a fresh server at one
// lattice point, on a scheduler that yields every batchSteps trace nodes,
// and reports what it produced, failing the test if the connection did
// not end quiescent.
func serveScript(t *testing.T, point string, cfg httpd.ServerConfig, batchSteps int, chunks [][]byte) served {
	t.Helper()
	s := newSiteBatch(t, 2, latticeFileBytes, batchSteps)
	if _, err := s.fs.Create("empty", 0, false); err != nil {
		t.Fatal(err)
	}
	cfg.CacheBytes = 1 << 20
	srv := httpd.NewServer(s.io, cfg)
	rest := bench.MarkQuiescence(s.rt, s.k, srv) // nothing stays: no listener, no accept loop
	tr := &replayTransport{chunks: chunks}
	// ServeTransport arms the idle deadline as it takes the connection, so
	// it is called where the accept loop calls it: on a thread, which holds
	// virtual time still.
	runAndWait(s.rt, core.Bind(core.Do(func() {}), func(core.Unit) core.M[core.Unit] {
		return srv.ServeTransport(tr)
	}))
	if tr.closes != 1 {
		t.Errorf("%s: transport closed %d times, want exactly once", point, tr.closes)
	}
	if err := rest.Check(); err != nil {
		t.Errorf("%s: %v", point, err)
	}
	snap := srv.Metrics().Snapshot()
	return served{tr.out.Bytes(), counts{
		requests: snap.Counter("requests"), bytesOut: snap.Counter("bytes_out"),
		cached: snap.Counter("cached_serves"), aio: snap.Counter("aio_serves"),
		errors: snap.Counter("errors"), cells: int64(tr.cells),
	}}
}

// checkLattice serves sel at every lattice point, yielding after every
// trace node and after every 128, and compares each with the model (and
// so with every other point): where the node budget runs out is the
// scheduler's business and must not show in a byte or a counter.
func checkLattice(t *testing.T, sel []byte) {
	t.Helper()
	reqs, chunks := script(sel)
	want := model(reqs)
	for point, cfg := range latticePoints() {
		for _, batchSteps := range []int{1, 128} {
			got := serveScript(t, point, cfg, batchSteps, chunks)
			if !bytes.Equal(got.out, want.out) {
				t.Errorf("%s, BatchSteps %d, script %v: wrote %d bytes, model says %d; first difference at %d",
					point, batchSteps, sel, len(got.out), len(want.out), firstDiff(got.out, want.out))
			}
			if got.counts != want.counts {
				t.Errorf("%s, BatchSteps %d, script %v: {requests bytes_out cached_serves aio_serves errors cell_writes} = %v, model says %v",
					point, batchSteps, sel, got.counts, want.counts)
			}
		}
	}
}

// acceptScript is serveScript through the front door: the server binds
// and runs its accept loop, a socket client sends the chunks and reads to
// end of stream (so the script must end on a closing request). It reports
// the response bytes with the scheduler's fork and dispatch counts once
// only the accept loop is left.
func acceptScript(t *testing.T, cfg httpd.ServerConfig, batchSteps int, chunks [][]byte) (out []byte, forks, dispatches int64) {
	t.Helper()
	s := newSiteBatch(t, 2, latticeFileBytes, batchSteps)
	cfg.CacheBytes = 1 << 20
	srv := httpd.NewServer(s.io, cfg)
	serve, err := srv.BindAndServe("web:80")
	if err != nil {
		t.Fatal(err)
	}
	s.rt.Spawn(serve)
	rest := bench.MarkQuiescence(s.rt, s.k, srv)
	rest.Threads, rest.FDs = 1, 1 // the accept loop and its listener stay
	runAndWait(s.rt, core.Bind(s.io.SockConnect("web:80"), func(fd kernel.FD) core.M[core.Unit] {
		send := core.ForN(len(chunks), func(i int) core.M[core.Unit] {
			return core.Then(s.io.SockSend(fd, chunks[i]), core.Skip)
		})
		return core.Seq(send, readUntilClosed(s.io, fd, &out), s.io.CloseFD(fd))
	}))
	if err := rest.Check(); err != nil {
		t.Fatal(err)
	}
	snap := s.rt.Stats().Snapshot()
	return out, snap.Counter("forks"), snap.Counter("dispatches")
}

// A backlog-only Overload sets one integer on the listener: it must cost
// what the plain server costs — no limiter, no per-connection wrapper,
// nothing around the accept step — so both points fork and dispatch
// exactly as often, at a budget of one node per dispatch too.
func checkBacklogOnlyIsPlain(t *testing.T, sel []byte) {
	t.Helper()
	reqs, chunks := script(sel)
	want := model(reqs)
	for _, batchSteps := range []int{1, 128} {
		plainOut, plainForks, plainDispatches := acceptScript(t, httpd.ServerConfig{}, batchSteps, chunks)
		out, forks, dispatches := acceptScript(t,
			httpd.ServerConfig{Overload: &httpd.OverloadConfig{Backlog: 8}}, batchSteps, chunks)
		if !bytes.Equal(plainOut, want.out) || !bytes.Equal(out, want.out) {
			t.Errorf("BatchSteps %d: plain wrote %d bytes, backlog-only overload %d, model says %d",
				batchSteps, len(plainOut), len(out), len(want.out))
		}
		if forks != plainForks || dispatches != plainDispatches {
			t.Errorf("BatchSteps %d: backlog-only overload ran %d forks / %d dispatches, plain %d / %d",
				batchSteps, forks, dispatches, plainForks, plainDispatches)
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

func TestServeLattice(t *testing.T) {
	for _, sel := range [][]byte{
		{0, 0, 1, 2, 3, 4, 0, 3, 6, 33, 36, 1, 0, 5}, // mixed, ends on HTTP/1.0 close
		{0, 1, 1, 34, 3, 4, 39, 2},                   // pipelined heads, ends at EOF
		{1, 7},                                       // Connection: close on a cached file
		{5},                                          // HTTP/1.0 close on an uncached file
		{7},                                          // Connection: close on an uncached file
		{0, 0, 8, 0},                                 // malformed head after two responses
		{9, 9, 31, 0, 20},                            // a 0-byte file: streamed once, then cached
		{10, 0},                                      // POST with a 5-byte body, then GET
		{21, 43, 10, 0},                              // split and pipelined: a body and the next head share a read
		{},                                           // EOF before any request
	} {
		checkLattice(t, sel)
	}
	checkBacklogOnlyIsPlain(t, []byte{0, 0, 1, 2, 3, 4, 0, 3, 6, 33, 36, 1, 0, 5})
}

func FuzzServeLattice(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{5, 0})
	f.Add([]byte{3, 3, 3, 0, 0, 0, 2, 2, 2})
	f.Add([]byte{0, 1, 34, 6, 7, 8})
	f.Add([]byte{9, 31, 20, 0})
	f.Add([]byte{10, 21, 0, 43})
	f.Fuzz(func(t *testing.T, sel []byte) {
		if len(sel) > 32 {
			t.Skip()
		}
		checkLattice(t, sel)
	})
}
