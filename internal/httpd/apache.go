package httpd

import (
	"fmt"
	"strings"
	"sync/atomic"

	"hybrid/internal/bufpool"
	"hybrid/internal/kernel"
	"hybrid/internal/nptl"
)

// ApacheLike is the Figure 19 baseline: a thread-per-connection blocking
// static-file server over the NPTL runtime, standing in for Apache 2.0.55
// in the paper's comparison. Its file cache models the OS page cache on
// the paper's 512 MB machine: thread stacks and page cache compete for
// the same memory, so the effective cache shrinks as connections (and
// therefore kernel threads) grow — one of the structural costs of the
// thread-per-connection design.
type ApacheLike struct {
	rt    *nptl.Runtime
	k     *kernel.Kernel
	fs    *kernel.FS
	cfg   ApacheConfig
	cache *Cache

	requests atomic.Uint64
}

// ApacheConfig tunes the baseline.
type ApacheConfig struct {
	// PageCacheBytes is the page cache available with zero threads.
	// Default 100 MB, matching the hybrid server's cache for a fair
	// comparison.
	PageCacheBytes int64
	// ChunkBytes is the blocking read granularity. Default 16 KB.
	ChunkBytes int
}

func (c ApacheConfig) withDefaults() ApacheConfig {
	if c.PageCacheBytes <= 0 {
		c.PageCacheBytes = 100 * 1024 * 1024
	}
	if c.ChunkBytes <= 0 {
		c.ChunkBytes = 16 * 1024
	}
	return c
}

// NewApacheLike creates the baseline server over an NPTL runtime.
func NewApacheLike(rt *nptl.Runtime, k *kernel.Kernel, fs *kernel.FS, cfg ApacheConfig) *ApacheLike {
	cfg = cfg.withDefaults()
	return &ApacheLike{
		rt: rt, k: k, fs: fs, cfg: cfg,
		cache: NewCache(cfg.PageCacheBytes),
	}
}

// Requests reports requests served.
func (a *ApacheLike) Requests() uint64 { return a.requests.Load() }

// Cache exposes the page-cache model.
func (a *ApacheLike) Cache() *Cache { return a.cache }

// squeezeCache recomputes the page cache under thread-stack pressure:
// each thread's stack reservation comes out of it.
func (a *ApacheLike) squeezeCache() {
	avail := a.cfg.PageCacheBytes - a.rt.StackMemory()
	if avail < 1<<20 {
		avail = 1 << 20
	}
	a.cache.Resize(avail)
}

// ListenAndServe binds addr and serves until the acceptor thread fails.
// It spawns the acceptor on the NPTL runtime and returns immediately.
func (a *ApacheLike) ListenAndServe(addr string) error {
	lfd, err := a.k.Listen(addr, 1024)
	if err != nil {
		return err
	}
	return a.rt.Spawn(func(t *nptl.Thread) {
		for {
			conn, err := t.Accept(lfd)
			if err != nil {
				return
			}
			// Thread per connection; spawn failure (stack budget
			// exhausted) refuses the connection, as a loaded 2006
			// Apache would.
			if err := a.rt.Spawn(func(t *nptl.Thread) {
				a.serve(t, conn)
			}); err != nil {
				t.Close(conn)
				continue
			}
			a.squeezeCache()
		}
	})
}

// serve handles one connection with blocking calls.
func (a *ApacheLike) serve(t *nptl.Thread, conn kernel.FD) {
	hb := &HeadBuffer{}
	buf := bufpool.Get(connReadBytes)
	defer func() {
		t.Close(conn)
		a.squeezeCache()
		bufpool.Put(buf)
	}()
	for {
		head, err := hb.Pending()
		if err != nil {
			return
		}
		for head == "" {
			n, rerr := t.Read(conn, buf)
			if rerr != nil || n == 0 {
				return
			}
			if head, err = hb.Feed(buf[:n]); err != nil {
				return
			}
		}
		var req Request
		if err := ParseRequestInto(&req, head); err != nil {
			return
		}
		// Drain the declared body; bytes past it are the next head.
		for _, remaining := hb.startBody(&req); remaining > 0; {
			n, rerr := t.Read(conn, buf)
			if rerr != nil || n == 0 {
				return
			}
			if int64(n) > remaining {
				hb.pushBack(buf[remaining:n])
			}
			remaining -= int64(n)
		}
		if keep, err := a.respond(t, conn, &req); err != nil || !keep {
			return
		}
	}
}

func (a *ApacheLike) respond(t *nptl.Thread, conn kernel.FD, req *Request) (bool, error) {
	a.requests.Add(1)
	keep := req.KeepAlive()
	if req.Method != "GET" && req.Method != "HEAD" {
		return keep, a.sendError(t, conn, 405, keep)
	}
	name := strings.TrimPrefix(req.Path, "/")
	if name == "" || strings.Contains(name, "..") {
		return keep, a.sendError(t, conn, 400, keep)
	}
	if req.Method == "HEAD" {
		f, err := a.fs.Open(name)
		if err != nil {
			return keep, a.sendError(t, conn, 404, keep)
		}
		return keep, t.WriteAll(conn, ResponseHead(200, f.Size(), keep))
	}
	if data, ok := a.cache.Get(name); ok {
		if err := t.WriteAll(conn, ResponseHead(200, int64(len(data)), keep)); err != nil {
			return false, err
		}
		return keep, t.WriteAll(conn, data)
	}
	f, err := a.fs.Open(name)
	if err != nil {
		return keep, a.sendError(t, conn, 404, keep)
	}
	size := f.Size()
	if err := t.WriteAll(conn, ResponseHead(200, size, keep)); err != nil {
		return false, err
	}
	// The page-cache model caches every file it streams (Resize evicts),
	// so reads land straight in the future cache entry; a stream cut
	// short by a zero read caches the prefix delivered, as the
	// assemble-by-append loop this replaces did.
	ck := newChunker(size, size, a.cfg.ChunkBytes)
	for off := int64(0); off < size; {
		n, err := t.Pread(f, ck.window(off), off)
		if err != nil {
			return false, err
		}
		if n == 0 {
			break
		}
		if err := t.WriteAll(conn, ck.view(off, n)); err != nil {
			return false, err
		}
		off += int64(n)
	}
	a.cache.Put(name, ck.assembled())
	return keep, nil
}

func (a *ApacheLike) sendError(t *nptl.Thread, conn kernel.FD, status int, keep bool) error {
	body := fmt.Sprintf("%d %s\n", status, statusText[status])
	if err := t.WriteAll(conn, ResponseHead(status, int64(len(body)), keep)); err != nil {
		return err
	}
	return t.WriteAll(conn, []byte(body))
}
