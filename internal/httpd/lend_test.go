package httpd_test

import (
	"bytes"
	"testing"

	"hybrid/internal/bufpool"
	"hybrid/internal/core"
	"hybrid/internal/httpd"
	"hybrid/internal/kernel"
	"hybrid/internal/loadgen"
)

// TestLentBodyOutlivesItsCacheEntry is the ownership oracle for cache
// hits sent by reference over kernel sockets. A client stalls mid-body on
// a cached 16 KB file, so the socket ring still references the rest of
// the entry; the entry is then evicted and replaced with different bytes,
// and the client must still read the old bytes exactly. While it stalls
// the ring holds no pooled segment (the body is lent, not copied), and
// after close every segment is back in the pool: under -race a lent
// segment handed to bufpool.PutSeg would panic on its capacity, and a
// pooled one read after its Put would read poison.
func TestLentBodyOutlivesItsCacheEntry(t *testing.T) {
	const size = 16 << 10
	s := newSite(t, 1, size)
	srv := httpd.NewServer(s.io, httpd.ServerConfig{CacheBytes: 1 << 20})
	name := loadgen.FileName(0)
	old := make([]byte, size)
	for i := range old {
		old[i] = byte(i*7 + i>>8)
	}
	want := append([]byte(nil), old...)
	srv.Cache().Put(name, old)
	floor := bufpool.SegOutstanding()
	s.serve(t, srv)

	head := httpd.ResponseHead(200, size, true)
	got := make([]byte, len(head)+size)
	stall := len(head) + 4096
	var fd kernel.FD
	runAndWait(s.rt, core.Bind(s.io.SockConnect("web:80"), func(c kernel.FD) core.M[core.Unit] {
		fd = c
		req := []byte("GET /" + name + " HTTP/1.1\r\nHost: t\r\n\r\n")
		return core.Then(s.io.SockSend(c, req), core.Then(s.io.SockReadFull(c, got[:stall]), core.Skip))
	}))
	if held := bufpool.SegOutstanding() - floor; held != 0 {
		t.Errorf("stalled mid-body: the rings hold %d pooled segments, want 0 (the body is lent)", held)
	}

	srv.Cache().Resize(0)
	srv.Cache().Resize(1 << 20)
	srv.Cache().Put(name, bytes.Repeat([]byte{0xEE}, size))
	if b, ok := srv.Cache().Get(name); !ok || b[0] != 0xEE {
		t.Fatal("cache entry was not replaced")
	}

	runAndWait(s.rt, core.Then(s.io.SockReadFull(fd, got[stall:]), s.io.CloseFD(fd)))
	if !bytes.Equal(got[:len(head)], head) {
		t.Fatalf("head = %q, want %q", got[:len(head)], head)
	}
	if !bytes.Equal(got[len(head):], want) {
		t.Fatal("body differs from the entry that was cached when the request was served")
	}
	waitLiveOrFatal(t, s, 1)
	if held := bufpool.SegOutstanding() - floor; held != 0 {
		t.Fatalf("after close: %d ring segments outstanding, want 0", held)
	}
}
