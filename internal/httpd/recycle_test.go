package httpd_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hybrid/internal/core"
	"hybrid/internal/disk"
	"hybrid/internal/hio"
	"hybrid/internal/httpd"
	"hybrid/internal/kernel"
	"hybrid/internal/netsim"
	"hybrid/internal/tcp"
	"hybrid/internal/vclock"
)

// The recycle model holds the cache's buffer recycling to one oracle: every
// byte a client reads is the file's. Its files are materialized with
// distinct random contents, so a recycled buffer served for the wrong
// file, or overwritten under a reader still holding it, shows as a wrong
// byte (under -race the cache poisons what it recycles, so such a reader
// reads bufpool.Poison).

// recycleSizes mixes an empty file, files under one read chunk and files
// that take several; there are two files of each size, and six of the
// largest, so a miss often refills a buffer another 16 KB file left.
var recycleSizes = [...]int{0, 1, 700, 4096, 5000, 16 << 10, 16 << 10, 16 << 10}

const (
	recycleFiles = 2 * len(recycleSizes)
	recycleChunk = 4 << 10
	// recycleCache holds one 16 KB file and a few small ones, so nearly
	// every miss evicts.
	recycleCache = 24 << 10
	// recycleStalls bounds the stalled connections held at once.
	recycleStalls = 3
)

// recycleRig is a server over one transport and a way to dial it.
type recycleRig struct {
	rt   *core.Runtime
	srv  *httpd.Server
	dial func() core.M[httpd.Transport]
}

// recycleFS creates the model's files with their contents.
func recycleFS(t testing.TB, clk vclock.Clock) (*kernel.FS, [][]byte) {
	fs := kernel.NewFS(disk.New(clk, disk.DefaultGeometry()))
	contents := make([][]byte, recycleFiles)
	for i := range contents {
		b := make([]byte, recycleSizes[i%len(recycleSizes)])
		rand.New(rand.NewSource(int64(i) + 1)).Read(b)
		f, err := fs.Create(recycleName(i), int64(len(b)), true)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) > 0 {
			if _, err := f.WriteAt(b, 0); err != nil {
				t.Fatal(err)
			}
		}
		contents[i] = b
	}
	return fs, contents
}

func recycleName(i int) string { return fmt.Sprintf("f%d", i) }

var recycleConfig = httpd.ServerConfig{CacheBytes: recycleCache, ChunkBytes: recycleChunk}

// sockRecycleRig serves over kernel sockets, where a hit's body is lent
// to the socket ring until the client reads it.
func sockRecycleRig(t testing.TB) (*recycleRig, [][]byte) {
	clk := vclock.NewVirtual()
	fs, contents := recycleFS(t, clk)
	rt := core.NewRuntime(core.Options{Workers: 1, Clock: clk})
	t.Cleanup(rt.Shutdown)
	io := hio.New(rt, kernel.New(clk), fs)
	srv := httpd.NewServer(io, recycleConfig)
	loop, err := srv.BindAndServe("web:80")
	if err != nil {
		t.Fatal(err)
	}
	rt.Spawn(loop)
	return &recycleRig{rt: rt, srv: srv, dial: func() core.M[httpd.Transport] {
		return core.Map(io.SockConnect("web:80"), func(fd kernel.FD) httpd.Transport {
			return httpd.SockTransport{IO: io, FD: fd}
		})
	}}, contents
}

// tcpRecycleRig serves over the TCP stack, where a hit's body is lent to
// the send queue until the client ACKs it.
func tcpRecycleRig(t testing.TB) (*recycleRig, [][]byte) {
	clk := vclock.NewVirtual()
	fs, contents := recycleFS(t, clk)
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
	rt := core.NewRuntime(core.Options{Workers: 1, Clock: clk})
	t.Cleanup(rt.Shutdown)
	srv := httpd.NewServer(hio.New(rt, kernel.New(clk), fs), recycleConfig)
	l, err := stackS.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	rt.Spawn(srv.ServeTCP(l))
	return &recycleRig{rt: rt, srv: srv, dial: func() core.M[httpd.Transport] {
		return core.Map(stackC.ConnectM("server", 80), func(c *tcp.Conn) httpd.Transport {
			return httpd.TCPTransport{Conn: c}
		})
	}}, contents
}

// stalledConn is a connection with pipelined requests whose responses
// the client has stopped reading: the server's lent hits stay in the
// ring or the send queue while the script evicts and refills.
type stalledConn struct {
	t    httpd.Transport
	want []byte // every response the requests are owed, in order
	got  int    // bytes of want already read
}

// recycleClient runs one script against a rig as a single client thread.
type recycleClient struct {
	rig      *recycleRig
	contents [][]byte
	capacity int64
	conns    [2]httpd.Transport // keep-alive connections, nil until dialed
	stalled  []stalledConn
	recent   []int    // files requested lately, most recent last
	kept     [][]byte // buffers given to Cache.Put, which must stay as given
	keptFile []int
	op       int
	fail     string
}

func (c *recycleClient) failf(format string, args ...any) {
	if c.fail == "" {
		c.fail = fmt.Sprintf("op %d: ", c.op) + fmt.Sprintf(format, args...)
	}
}

// response is what a GET of file i is owed on a kept connection.
func (c *recycleClient) response(i int) []byte {
	body := c.contents[i]
	return append(append([]byte(nil), httpd.ResponseHead(200, int64(len(body)), true)...), body...)
}

func recycleRequest(i int) []byte {
	return []byte("GET /" + recycleName(i) + " HTTP/1.1\r\nHost: t\r\n\r\n")
}

// expect reads len(want) bytes from t and compares them with want.
func (c *recycleClient) expect(t httpd.Transport, want []byte, what string) core.M[core.Unit] {
	got := make([]byte, len(want))
	var read func(n int) core.M[core.Unit]
	read = func(n int) core.M[core.Unit] {
		if n == len(got) {
			if !bytes.Equal(got, want) {
				i := firstDiff(got, want)
				c.failf("%s: byte %d of %d is %#x, want %#x", what, i, len(want), got[i], want[i])
			}
			return core.Skip
		}
		return core.Bind(t.Read(got[n:]), func(r int) core.M[core.Unit] {
			if r == 0 {
				c.failf("%s: stream ended after %d of %d bytes", what, n, len(want))
				return core.Skip
			}
			return read(n + r)
		})
	}
	return read(0)
}

// conn returns kept connection i, dialing it if need be.
func (c *recycleClient) conn(i int) core.M[httpd.Transport] {
	if c.conns[i] != nil {
		return core.Return(c.conns[i])
	}
	return core.Map(c.rig.dial(), func(t httpd.Transport) httpd.Transport {
		c.conns[i] = t
		return t
	})
}

// pick names the file of a stall's request j: the most recent file each
// time, which is likely cached, so the responses past the client's
// receive window are lent hits; the recent files in turn; or any file.
func (c *recycleClient) pick(a, j int) int {
	n := len(c.recent)
	switch {
	case n > 0 && a&3 == 0:
		return c.recent[n-1]
	case n > 0 && a&3 == 1:
		return c.recent[n-1-(j%n)]
	}
	return (a + j) % recycleFiles
}

func (c *recycleClient) touch(i int) {
	c.recent = append(c.recent, i)
	if len(c.recent) > 4 {
		c.recent = c.recent[1:]
	}
}

// step applies the operation op, a to the server.
func (c *recycleClient) step(op, a byte) core.M[core.Unit] {
	cache := c.rig.srv.Cache()
	switch op % 8 {
	case 0, 1, 2: // a GET on a kept connection, read in full
		file := int(a>>1) % recycleFiles
		c.touch(file)
		return core.Bind(c.conn(int(a&1)), func(t httpd.Transport) core.M[core.Unit] {
			return core.Then(t.Write(recycleRequest(file)), c.expect(t, c.response(file), "GET "+recycleName(file)))
		})
	case 3: // pipelined GETs on a new connection, then stop reading
		var reqs, want []byte
		for j := 0; j <= int(a>>2)%8; j++ {
			file := c.pick(int(a), j)
			reqs = append(reqs, recycleRequest(file)...)
			want = append(want, c.response(file)...)
		}
		first := len(httpd.ResponseHead(200, 0, true))
		prefix := []int{0, first, first + 512}[int(a>>5)%3]
		if prefix > len(want) {
			prefix = len(want)
		}
		m := core.Bind(c.rig.dial(), func(t httpd.Transport) core.M[core.Unit] {
			return core.Then(t.Write(reqs), core.Then(c.expect(t, want[:prefix], "stalled prefix"), core.Do(func() {
				c.stalled = append(c.stalled, stalledConn{t: t, want: want, got: prefix})
			})))
		})
		if len(c.stalled) >= recycleStalls {
			m = core.Then(c.resume(0), m)
		}
		return m
	case 4:
		if len(c.stalled) == 0 {
			return core.Skip
		}
		return c.resume(int(a) % len(c.stalled))
	case 5:
		c.capacity = []int64{0, recycleCache / 2, recycleCache, recycleCache}[a%4]
		return core.Do(func() { cache.Resize(c.capacity) })
	case 6: // an external Put of a copy the client keeps
		file := int(a) % recycleFiles
		buf := bytes.Clone(c.contents[file])
		c.kept, c.keptFile = append(c.kept, buf), append(c.keptFile, file)
		return core.Do(func() { cache.Put(recycleName(file), buf) })
	default:
		t := c.conns[a&1]
		if t == nil {
			return core.Skip
		}
		c.conns[a&1] = nil
		return t.Close()
	}
}

// resume reads the rest of stalled connection i and closes it.
func (c *recycleClient) resume(i int) core.M[core.Unit] {
	s := c.stalled[i]
	c.stalled = append(c.stalled[:i], c.stalled[i+1:]...)
	return core.Then(c.expect(s.t, s.want[s.got:], "resumed stall"), s.t.Close())
}

// run applies script two bytes at a time, then drains every stall and
// closes every connection.
func (c *recycleClient) run(script []byte) core.M[core.Unit] {
	if c.op+1 >= len(script) || c.fail != "" {
		var m core.M[core.Unit] = core.Skip
		for len(c.stalled) > 0 {
			m = core.Then(m, c.resume(0))
		}
		for i, t := range c.conns {
			if t != nil {
				m = core.Then(m, t.Close())
				c.conns[i] = nil
			}
		}
		return m
	}
	return core.Bind(c.step(script[c.op], script[c.op+1]), func(core.Unit) core.M[core.Unit] {
		if used := c.rig.srv.Cache().Used(); used > c.capacity {
			c.failf("cache holds %d bytes over a capacity of %d", used, c.capacity)
		}
		c.op += 2
		return c.run(script)
	})
}

// checkRecycle runs script against the server over kernel sockets and
// over TCP, comparing every byte served with the file's contents, and
// checks that no buffer given to Cache.Put was written.
func checkRecycle(t *testing.T, script []byte) {
	for _, backend := range []struct {
		name string
		rig  func(testing.TB) (*recycleRig, [][]byte)
	}{{"sockets", sockRecycleRig}, {"tcp", tcpRecycleRig}} {
		rig, contents := backend.rig(t)
		c := &recycleClient{rig: rig, contents: contents, capacity: recycleCache}
		done := make(chan struct{})
		rig.rt.Spawn(core.Then(c.run(script), core.Do(func() { close(done) })))
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: script wedged at op %d", backend.name, c.op)
		}
		if c.fail != "" {
			t.Fatalf("%s: %s (script %v)", backend.name, c.fail, script)
		}
		for i, b := range c.kept {
			if !bytes.Equal(b, contents[c.keptFile[i]]) {
				t.Fatalf("%s: a buffer given to Cache.Put for %s was written at byte %d (script %v)",
					backend.name, recycleName(c.keptFile[i]), firstDiff(b, contents[c.keptFile[i]]), script)
			}
		}
	}
}

// TestCacheRecycleModel runs seeded random scripts through checkRecycle.
func TestCacheRecycleModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	script := make([]byte, 160)
	for i := 0; i < 40; i++ {
		rng.Read(script)
		checkRecycle(t, script)
	}
}

// FuzzCacheRecycle is TestCacheRecycleModel's check over fuzzed scripts.
func FuzzCacheRecycle(f *testing.F) {
	// Miss two 16 KB files, stall on eight hits of the later (over TCP
	// the last four wait in the send queue), evict it with misses of two
	// other 16 KB files, the second of which refills its buffer if the
	// lent entry was recycled, then resume.
	f.Add([]byte{0, 10, 0, 12, 3, 28, 0, 14, 0, 26, 4, 0})
	// An external Put evicted by a miss, then a miss that refills its
	// buffer if it was recycled.
	f.Add([]byte{6, 5, 0, 12, 0, 14})
	// Resizes, a flush and zero-size files among stalls.
	f.Add([]byte{0, 0, 3, 2, 5, 0, 0, 24, 5, 2, 3, 6, 0, 12, 4, 1, 7, 0, 0, 14})
	f.Fuzz(checkRecycle)
}
