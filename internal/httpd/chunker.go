package httpd

import "hybrid/internal/bufpool"

// chunker owns the destination-buffer bookkeeping shared by the two
// file-streaming loops (the hybrid server's miss record, which holds one
// by value, and the Apache baseline's respond). A cacheable file is read
// chunk-by-chunk directly into a single full-size destination — the
// bytes land once and the finished buffer becomes the cache entry,
// retiring the old assemble-by-append copy. The destination is an entry the cache owns
// (Cache.fill), so a miss in a full cache reads into a body it evicted.
// Every write of the fill copies (Transport.Write, the kernel's write),
// and store hands the entry to the cache only after the last one, so
// nothing else ever holds it. An uncacheable file streams through one
// pooled scratch chunk instead.
//
// Reads are always issued over a window no longer than the bytes that
// remain, which matches the kernel's own clamp (AIO.Read bounds n to
// the file size before computing disk time), so the switch from a fixed
// full-length chunk changes neither read results nor virtual timing.
type chunker struct {
	size       int64
	chunkBytes int
	entry      *cacheEntry // the cache's full-size destination when cacheable, else nil
	scratch    []byte      // pooled chunk when not cacheable
	filled     int64       // bytes landed in the destination (for partial-file cache puts)
}

// newChunker sizes the destination for one file. cacheLimit bounds which
// files assemble for caching (pass size to cache unconditionally, as the
// Apache page-cache model does).
func newChunker(c *Cache, size, cacheLimit int64, chunkBytes int) chunker {
	ck := chunker{size: size, chunkBytes: chunkBytes}
	if size <= cacheLimit {
		ck.entry = c.fill(size)
	} else {
		ck.scratch = bufpool.Get(chunkBytes)
	}
	return ck
}

// cacheable reports whether the streamed bytes are being assembled.
func (ck *chunker) cacheable() bool { return ck.entry != nil }

// window returns the buffer to read the chunk at off into.
func (ck *chunker) window(off int64) []byte {
	n := int64(ck.chunkBytes)
	if n > ck.size-off {
		n = ck.size - off
	}
	if ck.entry != nil {
		return ck.entry.data[off : off+n]
	}
	return ck.scratch[:n]
}

// view returns the n bytes just read at off, accounting them as filled.
func (ck *chunker) view(off int64, n int) []byte {
	if end := off + int64(n); end > ck.filled {
		ck.filled = end
	}
	if ck.entry != nil {
		return ck.entry.data[off : off+int64(n)]
	}
	return ck.scratch[:n]
}

// store caches the contiguously filled prefix of the destination in c
// under key: the whole file after a complete stream, a partial prefix if
// the stream ended early on a short read. Only that prefix is published,
// so a recycled buffer's stale bytes past it are never served. The
// destination is the cache's from here on.
func (ck *chunker) store(c *Cache, key string) {
	e := ck.entry
	ck.entry = nil
	e.key, e.data = key, e.data[:ck.filled]
	c.insert(e)
}

// release returns the pooled scratch chunk, once however often it is
// called. A chunk never released is a leak bufpool.Outstanding counts,
// so the miss record releases it from an Ensure frame.
func (ck *chunker) release() {
	if ck.scratch != nil {
		bufpool.Put(ck.scratch)
		ck.scratch = nil
	}
}

// drop ends a stream that stopped early (a short read, a dead chunk, a
// reset peer) without caching it: the unstored fill goes back to c's free
// list, which is safe because every write of a fill copied it, and the
// scratch chunk to its pool. Like release it acts once.
func (ck *chunker) drop(c *Cache) {
	if e := ck.entry; e != nil {
		ck.entry = nil
		c.mu.Lock()
		c.recycleLocked(e)
		c.mu.Unlock()
	}
	ck.release()
}
