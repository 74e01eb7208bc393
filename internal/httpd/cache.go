package httpd

import (
	"sync"

	"hybrid/internal/bufpool"
)

// Cache is a byte-bounded LRU of file contents. The paper's web server
// "implements its own caching" to exploit Linux AIO (§5.2) with a fixed
// 100 MB cache; the Apache stand-in uses the same structure as its page
// cache, with capacity squeezed by thread stacks (see apache.go).
//
// The cache owns the buffers it hands to a miss's fill (fill, via the
// chunker), and recycles them: an evicted entry that it owns and that no
// Get has returned goes into free, and a later fill of exactly its
// capacity reads into it instead of allocating. An entry Get returned
// may be lent by its caller (a kernel socket ring or a TCP send queue
// references it until the peer reads or ACKs, and neither reports a
// release), and bytes given to Put stay their caller's, so both go to
// the collector when evicted; only their records are reused.
type Cache struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	entries  map[string]*cacheEntry
	// Intrusive LRU list; head.next is most recent.
	head, tail cacheEntry
	// free holds the records of evicted entries, an owned, unshared
	// one's with its buffer. A sync.Pool keeps nothing across two
	// collections, so the free list never counts as live heap.
	free sync.Pool

	hits, misses, evictions uint64
}

type cacheEntry struct {
	key  string
	data []byte
	// owned: the cache made data for a fill. shared: a Get has returned
	// data since it was cached.
	owned, shared bool
	prev, next    *cacheEntry
}

// NewCache creates a cache bounded to capacity bytes.
func NewCache(capacity int64) *Cache {
	c := &Cache{capacity: capacity, entries: make(map[string]*cacheEntry)}
	c.head.next = &c.tail
	c.tail.prev = &c.head
	return c
}

// Resize changes the capacity, evicting as needed.
func (c *Cache) Resize(capacity int64) {
	c.mu.Lock()
	c.capacity = capacity
	c.evictLocked()
	c.mu.Unlock()
}

// Get returns the cached bytes for key, marking it most recently used.
// The returned slice must not be modified; the cache never reuses it.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	e.shared = true
	c.unlink(e)
	c.pushFront(e)
	return e.data, true
}

// Put stores bytes under key, evicting least-recently-used entries to
// stay under capacity. Objects larger than the capacity are not cached.
// The caller keeps data: the cache never writes into it.
func (c *Cache) Put(key string, data []byte) {
	c.insert(&cacheEntry{key: key, data: data})
}

// fill returns an owned entry whose data is size bytes for a miss to
// read into: a recycled buffer of exactly that capacity, else a fresh
// one. Its contents are stale until read over.
func (c *Cache) fill(size int64) *cacheEntry {
	e, _ := c.free.Get().(*cacheEntry)
	if e == nil {
		e = new(cacheEntry)
	}
	if int64(cap(e.data)) != size {
		e.data = make([]byte, size)
	}
	e.data = e.data[:size]
	e.owned = true
	return e
}

// insert caches e under e.key, replacing any entry there, and evicts to
// stay under capacity. An entry too large to cache is recycled.
func (c *Cache) insert(e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if int64(len(e.data)) > c.capacity {
		c.recycleLocked(e)
		return
	}
	if old, ok := c.entries[e.key]; ok {
		c.removeLocked(old)
	}
	c.entries[e.key] = e
	c.used += int64(len(e.data))
	c.pushFront(e)
	c.evictLocked()
}

// Used reports the cached byte total.
func (c *Cache) Used() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Stats reports hits, misses, and evictions.
func (c *Cache) Stats() (hits, misses, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}

func (c *Cache) evictLocked() {
	for c.used > c.capacity {
		lru := c.tail.prev
		if lru == &c.head {
			return
		}
		c.removeLocked(lru)
		c.evictions++
	}
}

// removeLocked takes e out of the cache and recycles its record.
func (c *Cache) removeLocked(e *cacheEntry) {
	c.unlink(e)
	delete(c.entries, e.key)
	c.used -= int64(len(e.data))
	c.recycleLocked(e)
}

// recycleLocked puts e's record into the free list, keeping its buffer
// only if e is owned and unshared. Under -race a kept buffer is poisoned,
// so a view wrongly kept across the eviction reads bufpool.Poison.
func (c *Cache) recycleLocked(e *cacheEntry) {
	data := e.data
	if !e.owned || e.shared {
		data = nil
	} else if bufpool.RaceChecked {
		b := data[:cap(data)]
		for i := range b {
			b[i] = bufpool.Poison
		}
	}
	*e = cacheEntry{data: data}
	c.free.Put(e)
}

func (c *Cache) unlink(e *cacheEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (c *Cache) pushFront(e *cacheEntry) {
	e.prev = &c.head
	e.next = c.head.next
	c.head.next.prev = e
	c.head.next = e
}
