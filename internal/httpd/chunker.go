package httpd

import (
	"hybrid/internal/bufpool"
	"hybrid/internal/core"
)

// chunker owns the destination-buffer bookkeeping shared by the three
// file-streaming loops (the hybrid server's sendFile and
// sendFileDegraded, and the Apache baseline's respond). A cacheable file
// is read chunk-by-chunk directly into a single full-size destination —
// the bytes land once and the finished buffer becomes the cache entry,
// retiring the old assemble-by-append copy. An uncacheable file streams
// through one pooled scratch chunk instead.
//
// Reads are always issued over a window no longer than the bytes that
// remain, which matches the kernel's own clamp (AIOReadExtra bounds n to
// the file size before computing disk time), so the switch from a fixed
// full-length chunk changes neither read results nor virtual timing.
type chunker struct {
	size       int64
	chunkBytes int
	dest       []byte // full-size destination when cacheable, else nil
	scratch    []byte // pooled chunk when not cacheable
	filled     int64  // bytes landed in dest (for partial-file cache puts)
}

// newChunker sizes the destination for one file. cacheLimit bounds which
// files assemble for caching (pass size to cache unconditionally, as the
// Apache page-cache model does).
func newChunker(size, cacheLimit int64, chunkBytes int) *chunker {
	ck := &chunker{size: size, chunkBytes: chunkBytes}
	if size <= cacheLimit {
		ck.dest = make([]byte, size)
	} else {
		ck.scratch = bufpool.Get(chunkBytes)
	}
	return ck
}

// cacheable reports whether the streamed bytes are being assembled.
func (ck *chunker) cacheable() bool { return ck.dest != nil }

// window returns the buffer to read the chunk at off into.
func (ck *chunker) window(off int64) []byte {
	n := int64(ck.chunkBytes)
	if n > ck.size-off {
		n = ck.size - off
	}
	if ck.dest != nil {
		return ck.dest[off : off+n]
	}
	return ck.scratch[:n]
}

// view returns the n bytes just read at off, accounting them as filled.
func (ck *chunker) view(off int64, n int) []byte {
	if end := off + int64(n); end > ck.filled {
		ck.filled = end
	}
	if ck.dest != nil {
		return ck.dest[off : off+int64(n)]
	}
	return ck.scratch[:n]
}

// assembled is the contiguously filled prefix of the destination — the
// cache entry (the whole file after a complete stream, a partial prefix
// if the stream ended early on a short read).
func (ck *chunker) assembled() []byte { return ck.dest[:ck.filled] }

// release returns the pooled scratch chunk. Safe to skip on error paths:
// an unreleased chunk is garbage-collected, it just is not reused.
func (ck *chunker) release() {
	if ck.scratch != nil {
		bufpool.Put(ck.scratch)
		ck.scratch = nil
	}
}

// streamBody builds the ship/stream pair for the monadic chunked copy
// loop: stream(off) reads the chunk at off (via readAt, so callers
// inject retry policy) and ships it; ship writes a chunk already read
// and continues the stream. On completion it releases the scratch chunk
// and inserts the assembled file into the cache. A short read (n == 0)
// ends the stream without caching.
func (s *Server) streamBody(t Transport, ck *chunker, name string,
	readAt func(off int64) core.M[int]) (ship func(n int, off int64) core.M[core.Unit], stream func(off int64) core.M[core.Unit]) {
	stream = func(off int64) core.M[core.Unit] {
		if off >= ck.size {
			return core.Do(func() {
				ck.release()
				if ck.cacheable() {
					s.cache.Put(name, ck.assembled())
				}
			})
		}
		return core.Bind(readAt(off), func(n int) core.M[core.Unit] {
			if n == 0 {
				ck.release()
				return core.Skip
			}
			return ship(n, off)
		})
	}
	ship = func(n int, off int64) core.M[core.Unit] {
		return core.Bind(t.Write(ck.view(off, n)), func(w int) core.M[core.Unit] {
			s.bytesOut.Add(uint64(w))
			return stream(off + int64(n))
		})
	}
	return ship, stream
}
