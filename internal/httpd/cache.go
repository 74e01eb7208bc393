package httpd

import "sync"

// Cache is a byte-bounded LRU of file contents. The paper's web server
// "implements its own caching" to exploit Linux AIO (§5.2) with a fixed
// 100 MB cache; the Apache stand-in uses the same structure as its page
// cache, with capacity squeezed by thread stacks (see apache.go).
type Cache struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	entries  map[string]*cacheEntry
	// Intrusive LRU list; head.next is most recent.
	head, tail cacheEntry

	hits, misses, evictions uint64
}

type cacheEntry struct {
	key        string
	data       []byte
	prev, next *cacheEntry
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
// The returned slice must not be modified.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.unlink(e)
	c.pushFront(e)
	return e.data, true
}

// Put stores bytes under key, evicting least-recently-used entries to
// stay under capacity. Objects larger than the capacity are not cached.
func (c *Cache) Put(key string, data []byte) {
	if int64(len(data)) > c.capacity {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[key]; ok {
		c.used -= int64(len(old.data))
		old.data = data
		c.used += int64(len(data))
		c.unlink(old)
		c.pushFront(old)
	} else {
		e := &cacheEntry{key: key, data: data}
		c.entries[key] = e
		c.used += int64(len(data))
		c.pushFront(e)
	}
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
		c.unlink(lru)
		delete(c.entries, lru.key)
		c.used -= int64(len(lru.data))
		c.evictions++
	}
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
