package main

import (
	"bytes"
	"fmt"

	"hybrid/internal/core"
	"hybrid/internal/httpd"
	"hybrid/internal/stats"
)

// fetcher is the benchmark's own HTTP client, written with the
// combinators over an httpd.Transport so the same code speaks kernel
// sockets (SockConnect/SockSend/SockRead) and the application-level TCP
// stack (ConnectM/WriteM/ReadM). Unlike internal/loadgen, which only
// counts body bytes, it compares every one of them with the expected
// contents. It serves the pre-flight checks, the parked herd's one
// request each, and the whole web-tcp-loss load.
type fetcher struct {
	t   httpd.Transport
	acc []byte // response bytes up to and past the end of the head
	buf []byte
}

func newFetcher(t httpd.Transport) *fetcher {
	return &fetcher{t: t, buf: make([]byte, 8192)}
}

var headEnd = []byte("\r\n\r\n")

// get issues one keep-alive GET and consumes the response exactly,
// throwing unless it is a 200 whose body equals want.
func (f *fetcher) get(name string, want []byte) core.M[core.Unit] {
	req := []byte("GET /" + name + " HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\r\n")
	return core.Bind(core.Then(f.t.Write(req), f.head()), func(head string) core.M[core.Unit] {
		status, length, err := httpd.ParseResponseHead(head)
		if err != nil {
			return core.Throw[core.Unit](err)
		}
		if status != 200 || length != int64(len(want)) {
			return core.Throw[core.Unit](fmt.Errorf("GET %s: status %d length %d, want 200 and %d", name, status, length, len(want)))
		}
		// Part of the body may have arrived behind the head.
		early := f.acc[len(head):]
		f.acc = f.acc[:0]
		if len(early) > len(want) || !bytes.Equal(early, want[:len(early)]) {
			return core.Throw[core.Unit](fmt.Errorf("GET %s: body differs in its first %d bytes", name, len(early)))
		}
		return f.body(name, want, len(early))
	})
}

// head reads until the blank line and returns the head through it.
func (f *fetcher) head() core.M[string] {
	return core.Bind(f.t.Read(f.buf), func(n int) core.M[string] {
		if n == 0 {
			return core.Throw[string](fmt.Errorf("connection closed mid-response"))
		}
		f.acc = append(f.acc, f.buf[:n]...)
		if i := bytes.Index(f.acc, headEnd); i >= 0 {
			return core.Return(string(f.acc[:i+len(headEnd)]))
		}
		return f.head()
	})
}

// body reads want[off:] and compares it chunk by chunk.
func (f *fetcher) body(name string, want []byte, off int) core.M[core.Unit] {
	if off >= len(want) {
		return core.Skip
	}
	p := f.buf
	if rest := len(want) - off; len(p) > rest {
		p = p[:rest]
	}
	return core.Bind(f.t.Read(p), func(n int) core.M[core.Unit] {
		if n == 0 {
			return core.Throw[core.Unit](fmt.Errorf("GET %s: body truncated at %d of %d bytes", name, off, len(want)))
		}
		if !bytes.Equal(p[:n], want[off:off+n]) {
			return core.Throw[core.Unit](fmt.Errorf("GET %s: body differs in bytes %d..%d", name, off, off+n))
		}
		return f.body(name, want, off+n)
	})
}

// newLatency is loadgen's latency histogram shape (log2 microsecond
// buckets), for the client that is not loadgen.
func newLatency() *stats.Histogram {
	return stats.NewRegistry().Histogram("latency_us", stats.PowersOfTwo(1<<26)...)
}
