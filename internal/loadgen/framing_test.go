package loadgen_test

import (
	"bytes"
	"testing"

	"hybrid/internal/bufpool"
	"hybrid/internal/core"
	"hybrid/internal/hio"
	"hybrid/internal/httpd"
	"hybrid/internal/kernel"
	"hybrid/internal/loadgen"
	"hybrid/internal/vclock"
)

// runCanned drives one keep-alive client through len(responses) requests
// against a stub server that answers the i-th request on the connection
// with responses[i], sent whole, and closes the connection after the
// last. It returns the generator once the client is done.
func runCanned(t *testing.T, responses [][]byte) *loadgen.Generator {
	t.Helper()
	clk := vclock.NewVirtual()
	k := kernel.New(clk)
	rt := core.NewRuntime(core.Options{Workers: 1, Clock: clk})
	defer rt.Shutdown()
	io := hio.New(rt, k, nil)
	lfd, err := k.Listen("stub:80", 1)
	if err != nil {
		t.Fatal(err)
	}
	stub := func(fd kernel.FD) core.M[core.Unit] {
		buf := make([]byte, 4096)
		i := 0
		return core.Then(
			core.Loop(core.Bind(io.SockRead(fd, buf), func(n int) core.M[bool] {
				if n == 0 {
					return core.Return(false)
				}
				// One request in flight, and it fits one read.
				resp := responses[i]
				i++
				return core.Map(io.SockSend(fd, resp), func(int) bool { return i < len(responses) })
			})),
			io.CloseFD(fd),
		)
	}
	rt.Spawn(core.Forever(core.Bind(io.SockAccept(lfd), func(fd kernel.FD) core.M[core.Unit] {
		return core.Fork(stub(fd))
	})))
	gen := loadgen.New(io, loadgen.Config{
		Addr: "stub:80", Clients: 1, Files: 1, RequestsPerClient: len(responses), Seed: 1,
	})
	done := make(chan struct{})
	rt.Spawn(core.Then(gen.Run(), core.Do(func() { close(done) })))
	<-done
	return gen
}

// response renders a 200 response with a body of n bytes.
func response(n int) []byte {
	return append(httpd.ResponseHead(200, int64(n), true), bytes.Repeat([]byte{'x'}, n)...)
}

// TestPumpFramesBodiesAcrossHeadWindow holds the pump's framing at every
// edge of its one-segment head read: no body, a body of one byte, a
// response that fills the head window exactly and one a byte longer, the
// benchmark's 16 KB, and a body larger than the socket ring, whose
// discard parks mid-body while the server waits for room. Every response
// must be counted whole, on one keep-alive connection, with no error.
func TestPumpFramesBodiesAcrossHeadWindow(t *testing.T) {
	fit := bufpool.SegSize // head and body fill one segment exactly
	for len(response(fit)) != bufpool.SegSize {
		fit--
	}
	sizes := []int{0, 1, fit, fit + 1, 16 << 10, kernel.DefaultSocketBuffer + 1}
	var responses [][]byte
	var total uint64
	for _, n := range sizes {
		responses = append(responses, response(n))
		total += uint64(n)
	}
	gen := runCanned(t, responses)
	if got := gen.Errors.Load(); got != 0 {
		t.Fatalf("%d errors", got)
	}
	if got, want := gen.Requests.Load(), uint64(len(sizes)); got != want {
		t.Fatalf("%d requests, want %d", got, want)
	}
	if got, good := gen.Bytes.Load(), gen.Goodput.Load(); got != total || good != total {
		t.Fatalf("Bytes %d, Goodput %d, want %d (bodies %v)", got, good, total, sizes)
	}
	if got, want := gen.Statuses[2].Load(), uint64(len(sizes)); got != want {
		t.Fatalf("%d 2xx statuses, want %d", got, want)
	}
}

// TestPumpCountsTruncatedBody: a server that closes mid-body costs the
// client exactly one error, and the response is not counted.
func TestPumpCountsTruncatedBody(t *testing.T) {
	cut := response(16 << 10)
	cut = cut[:len(cut)-(16<<10)+5000]
	gen := runCanned(t, [][]byte{response(16 << 10), cut})
	if got := gen.Errors.Load(); got != 1 {
		t.Fatalf("%d errors, want 1", got)
	}
	if got, b := gen.Requests.Load(), gen.Bytes.Load(); got != 1 || b != 16<<10 {
		t.Fatalf("%d requests of %d bytes, want the one whole response of %d", got, b, 16<<10)
	}
}

// TestPumpRejectsResponseWithoutLength: a response head with no usable
// Content-Length — none at all, or a negative one — is a malformed
// response, counted in Errors; its length must never reach Bytes or
// Goodput (an absent header reads as -1).
func TestPumpRejectsResponseWithoutLength(t *testing.T) {
	for name, resp := range map[string]string{
		"absent":   "HTTP/1.1 200 OK\r\nConnection: keep-alive\r\n\r\nabc",
		"negative": "HTTP/1.1 200 OK\r\nContent-Length: -5\r\nConnection: keep-alive\r\n\r\n",
	} {
		t.Run(name, func(t *testing.T) {
			gen := runCanned(t, [][]byte{[]byte(resp)})
			if got := gen.Errors.Load(); got != 1 {
				t.Errorf("%d errors, want 1", got)
			}
			if req, b, good := gen.Requests.Load(), gen.Bytes.Load(), gen.Goodput.Load(); req != 0 || b != 0 || good != 0 {
				t.Errorf("Requests %d, Bytes %d, Goodput %d, want all 0", req, b, good)
			}
		})
	}
}
