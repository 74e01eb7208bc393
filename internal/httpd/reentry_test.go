package httpd_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hybrid/internal/bench"
	"hybrid/internal/core"
	"hybrid/internal/disk"
	"hybrid/internal/faults"
	"hybrid/internal/hio"
	"hybrid/internal/httpd"
	"hybrid/internal/kernel"
	"hybrid/internal/netsim"
	"hybrid/internal/tcp"
	"hybrid/internal/vclock"
)

// A connection builds its miss record at its first cache miss and
// re-enters it for every later one, so whatever one miss leaves in the
// record — the file, the offset, the window, the retry count, the chunker
// — must not show in the next response. The re-entry oracle serves every
// kind of response on one keep-alive connection, misses between them,
// and compares every byte with the files' own. The files are materialized
// with distinct random contents: pattern-backed files all hold the same
// bytes, so a record that read the previous file would go unseen.

const (
	reentryChunk = 4 << 10
	// reentryCache holds "a", "multi" and "d" at once; "big" is larger
	// than all of it, so it streams through the scratch chunk uncached.
	reentryCache = 16 << 10
	reentryBad   = "bad" // on a permanently bad block: every read fails
)

// reentryFiles are the served files: "d" and "e" have the size of "a", so
// their misses refill buffers of one capacity back to back.
var reentryFiles = []struct {
	name string
	size int
}{
	{"a", 3000}, {"multi", 10000}, {"big", 40000}, {"empty", 0}, {"d", 3000}, {"e", 3000},
}

// reentryFS creates the files, then one more, "bad", on the first block
// past them that the seeded hard-fault plan marks bad. It returns the
// contents by name, and the plan, to be attached to the disk once the
// files are written.
func reentryFS(t *testing.T, clk vclock.Clock) (*kernel.FS, map[string][]byte, *faults.Injector) {
	fs := kernel.NewFS(disk.New(clk, disk.DefaultGeometry()))
	in := faults.New(faults.Config{Seed: 7, Rates: map[faults.Op]float64{faults.DiskHard: 0.001}}, clk)
	contents := map[string][]byte{}
	var blocks int64
	create := func(name string, size int, materialize bool) {
		f, err := fs.Create(name, int64(size), materialize)
		if err != nil {
			t.Fatal(err)
		}
		if materialize && size > 0 {
			b := make([]byte, size)
			rand.New(rand.NewSource(int64(len(contents)) + 1)).Read(b)
			if _, err := f.WriteAt(b, 0); err != nil {
				t.Fatal(err)
			}
			contents[name] = b
		} else if materialize {
			contents[name] = nil
		}
		blocks += max(1, (int64(size)+disk.BlockSize-1)/disk.BlockSize)
	}
	for _, f := range reentryFiles {
		create(f.name, f.size, true)
	}
	for b := int64(0); b < blocks; b++ {
		if in.HardKey(faults.DiskHard, uint64(b)) {
			t.Fatalf("the fault plan marks block %d of the served files bad", b)
		}
	}
	bad := blocks
	for !in.HardKey(faults.DiskHard, uint64(bad)) {
		bad++
	}
	if bad > blocks {
		create("pad", int(bad-blocks)*disk.BlockSize, false)
	}
	create(reentryBad, 2000, true)
	return fs, contents, in
}

// reentrySite is a server over one transport with a way to dial it.
type reentrySite struct {
	rt       *core.Runtime
	k        *kernel.Kernel
	srv      *httpd.Server
	contents map[string][]byte
	dial     func() core.M[httpd.Transport]
	stacks   []*tcp.Stack // over TCP: the server's and the client's
}

func newReentrySite(t *testing.T, overTCP bool, batchSteps int) *reentrySite {
	clk := vclock.NewVirtual()
	fs, contents, in := reentryFS(t, clk)
	fs.Disk().SetFaults(in)
	rt := core.NewRuntime(core.Options{Workers: 1, Clock: clk, BatchSteps: batchSteps})
	t.Cleanup(rt.Shutdown)
	k := kernel.New(clk)
	io := hio.New(rt, k, fs)
	srv := httpd.NewServer(io, httpd.ServerConfig{CacheBytes: reentryCache, ChunkBytes: reentryChunk})
	s := &reentrySite{rt: rt, k: k, srv: srv, contents: contents}
	if !overTCP {
		loop, err := srv.BindAndServe("web:80")
		if err != nil {
			t.Fatal(err)
		}
		rt.Spawn(loop)
		s.dial = func() core.M[httpd.Transport] {
			return core.Map(io.SockConnect("web:80"), func(fd kernel.FD) httpd.Transport {
				return httpd.SockTransport{IO: io, FD: fd}
			})
		}
		return s
	}
	net := netsim.New(clk, 5)
	hostS, err := net.Host("server", netsim.Ethernet100())
	if err != nil {
		t.Fatal(err)
	}
	hostC, err := net.Host("client", netsim.Ethernet100())
	if err != nil {
		t.Fatal(err)
	}
	stackS, stackC := tcp.NewStack(hostS, tcp.Config{}), tcp.NewStack(hostC, tcp.Config{})
	s.stacks = []*tcp.Stack{stackS, stackC}
	l, err := stackS.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	rt.Spawn(srv.ServeTCP(l))
	s.dial = func() core.M[httpd.Transport] {
		return core.Map(stackC.ConnectM("server", 80), func(c *tcp.Conn) httpd.Transport {
			return httpd.TCPTransport{Conn: c}
		})
	}
	return s
}

// reentryStep is one request and the bytes it is owed.
type reentryStep struct {
	what, req string
	want      []byte
}

// reentryScript is the scripted order: a miss, its hit, a multi-chunk
// miss, an uncacheable file, a 404, a HEAD, an empty file, two same-size
// misses back to back, and last the file on the bad block, which is
// retried, answered 503 and closed.
func reentryScript(contents map[string][]byte) []reentryStep {
	get := func(name string) reentryStep {
		body := contents[name]
		return reentryStep{"GET /" + name, "GET /" + name + " HTTP/1.1\r\nHost: t\r\n\r\n",
			append(append([]byte(nil), httpd.ResponseHead(200, int64(len(body)), true)...), body...)}
	}
	status := func(code int, reason string, keep bool) []byte {
		body := fmt.Sprintf("%d %s\n", code, reason)
		return append(append([]byte(nil), httpd.ResponseHead(code, int64(len(body)), keep)...), body...)
	}
	return []reentryStep{
		get("a"), get("a"), get("multi"), get("big"),
		{"GET /missing", "GET /missing HTTP/1.1\r\nHost: t\r\n\r\n", status(404, "Not Found", true)},
		{"HEAD /multi", "HEAD /multi HTTP/1.1\r\nHost: t\r\n\r\n",
			append([]byte(nil), httpd.ResponseHead(200, int64(len(contents["multi"])), true)...)},
		get("empty"), get("d"), get("e"),
		// It asks to close, so the connection ends whatever it is answered.
		{"GET /" + reentryBad, "GET /" + reentryBad + " HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
			status(503, "Service Unavailable", false)},
	}
}

// readToEOF reads t until its end of stream into *got.
func readToEOF(t httpd.Transport, got *[]byte) core.M[core.Unit] {
	buf := make([]byte, 4096)
	var read core.M[core.Unit]
	read = core.Bind(t.Read(buf), func(n int) core.M[core.Unit] {
		if n == 0 {
			return core.Skip
		}
		*got = append(*got, buf[:n]...)
		return read
	})
	return read
}

func TestMissRecordReentry(t *testing.T) {
	for _, overTCP := range []bool{false, true} {
		for _, batchSteps := range []int{1, 128} {
			name := fmt.Sprintf("sock/BatchSteps=%d", batchSteps)
			if overTCP {
				name = fmt.Sprintf("tcp/BatchSteps=%d", batchSteps)
			}
			t.Run(name, func(t *testing.T) { checkMissReentry(t, overTCP, batchSteps) })
		}
	}
}

func checkMissReentry(t *testing.T, overTCP bool, batchSteps int) {
	s := newReentrySite(t, overTCP, batchSteps)
	rest := bench.MarkQuiescence(s.rt, s.k, s.srv)
	rest.Threads, rest.FDs = 1, 1 // the accept loop and its listener stay
	if overTCP {
		// The TCP listener is not a kernel descriptor. Check waits for the
		// stacks' connections to close: the last segments, and their
		// pooled datagrams, are still crossing the simulated network when
		// the client's thread ends.
		rest.FDs, rest.Stacks = 0, s.stacks
	}
	// The client sends the whole script at once and reads until the
	// server closes after the 503, so a response cut short cannot wedge
	// it; the stream read is then compared with the script's.
	steps := reentryScript(s.contents)
	var script, want, got []byte
	for _, st := range steps {
		script = append(script, st.req...)
		want = append(want, st.want...)
	}
	client := core.Bind(s.dial(), func(tr httpd.Transport) core.M[core.Unit] {
		return core.Seq(core.Then(tr.Write(script), core.Skip), readToEOF(tr, &got), tr.Close())
	})
	done := make(chan struct{})
	s.rt.Spawn(core.Then(client, core.Do(func() { close(done) })))
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the connection never ended: the server wedged")
	}
	if !bytes.Equal(got, want) {
		i := firstDiff(got, want)
		at := 0
		for _, st := range steps {
			if at+len(st.want) > i {
				t.Fatalf("%s: byte %d of its response differs (read %d bytes in all, the script is owed %d)",
					st.what, i-at, len(got), len(want))
			}
			at += len(st.want)
		}
		t.Fatalf("read %d bytes past the %d the script is owed", len(got)-len(want), len(want))
	}
	if err := rest.Check(); err != nil {
		t.Fatal(err)
	}
	snap := s.srv.Metrics().Snapshot()
	for _, c := range []struct {
		name string
		want int64
	}{
		{"requests", 10}, {"cached_serves", 1}, {"aio_serves", 7},
		{"disk_retries", 2}, {"disk_errors", 1}, {"resp_503", 1}, {"errors", 0},
	} {
		if got := snap.Counter(c.name); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
}
