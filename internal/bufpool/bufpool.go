// Package bufpool provides size-classed byte-buffer free lists over
// sync.Pool for the runtime's hot paths: httpd connection read buffers
// and disk-chunk staging, the Apache baseline's buffers, and the
// datagrams the TCP stack encodes into and netsim carries.
//
// The paper's argument (§4, §5.2) is that an application-level runtime
// wins benchmarks because it controls every hot path; handing each
// connection's buffers to the garbage collector gives part of that win
// back. Pooling changes only memory reuse — never the virtual clock or
// the trace shape — so deterministic replays are unaffected.
//
// Ownership rules (see DESIGN.md "Performance"):
//   - Get returns a buffer owned exclusively by the caller.
//   - Put transfers ownership back; the caller must not retain any view
//     of the buffer afterwards. Under -race builds the pool poisons
//     returned buffers and panics on double puts to catch violations.
//   - Ownership can pass on: a datagram goes from the sending stack to
//     netsim to the receiving handler, and its last holder returns it.
//   - A buffer whose lifetime no one reports (an iovec view a sender
//     still queues, a cache entry lent to a socket ring or a TCP send
//     queue) must NOT be pooled — let the GC own it. The web cache keeps
//     its own free list, outside this package, of entries it filled and
//     never handed out (httpd.Cache): no one else can hold those, so
//     their eviction is their release.
package bufpool

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hybrid/internal/stats"
)

// classSizes are the pooled capacities, smallest first. Get rounds up to
// the nearest class; requests beyond the largest class fall through to
// plain allocation. The classes cover the repository's buffer shapes:
// 4 KiB connection read buffers, 16 KiB disk chunks, and wire segments
// (MSS + header, under 2 KiB on the simulated Ethernet).
var classSizes = [...]int{512, 2 << 10, 4 << 10, 16 << 10, 64 << 10}

// Poison is the byte -race builds write over every returned buffer, so
// a reader holding a view across Put sees nonsense instead of
// plausibly-stale data (see poison_race.go).
const Poison = 0xDB

type class struct {
	size int
	pool sync.Pool // holds *[]byte boxes with a live buffer inside
}

var classes [len(classSizes)]class

// boxes recycles the *[]byte headers that carry buffers in and out of
// the class pools, so a Get/Put cycle allocates nothing in steady state.
var boxes = sync.Pool{New: func() any { return new([]byte) }}

var (
	gets   atomic.Uint64 // Get calls
	puts   atomic.Uint64 // Put calls
	misses atomic.Uint64 // Gets not served from a pool (fresh allocation)
)

func init() {
	for i, n := range classSizes {
		classes[i].size = n
	}
}

// classFor returns the smallest class with size >= n, or nil when n is
// larger than every class.
func classFor(n int) *class {
	for i := range classes {
		if n <= classes[i].size {
			return &classes[i]
		}
	}
	return nil
}

// Get returns a buffer of length n. Its capacity is the class size, so
// subslices of the form b[:m] keep the capacity Put uses to find the
// class again.
func Get(n int) []byte {
	gets.Add(1)
	c := classFor(n)
	if c == nil {
		misses.Add(1)
		return make([]byte, n)
	}
	if v := c.pool.Get(); v != nil {
		bp := v.(*[]byte)
		b := *bp
		*bp = nil
		boxes.Put(bp)
		trackGet(b)
		return b[:n]
	}
	misses.Add(1)
	b := make([]byte, n, c.size)
	return b
}

// Put returns a buffer obtained from Get to its class. The buffer may
// have been resliced to a shorter length but must share the original
// backing array from its start (cap(b) must still be the class size).
// Buffers larger than every class (served by plain allocation) are
// dropped for the GC. Put of a buffer that is not from this pool panics:
// pooling a foreign buffer would poison memory someone else owns.
func Put(b []byte) {
	puts.Add(1)
	if cap(b) == 0 {
		panic("bufpool: Put of empty buffer")
	}
	c := classForCap(cap(b))
	if c == nil {
		if cap(b) > classSizes[len(classSizes)-1] {
			return // oversize one-off allocation; GC owns it
		}
		panic(fmt.Sprintf("bufpool: Put of foreign buffer (cap %d is no class size)", cap(b)))
	}
	b = b[:cap(b)]
	trackPut(b) // race builds: double-put check + poison
	bp := boxes.Get().(*[]byte)
	*bp = b
	c.pool.Put(bp)
}

// classForCap returns the class whose size is exactly c, or nil.
func classForCap(c int) *class {
	for i := range classes {
		if classes[i].size == c {
			return &classes[i]
		}
	}
	return nil
}

// SegSize is the fixed size of an elastic ring segment: the chunk
// granularity of the kernel sim's socket and pipe buffers (see
// internal/kernel/pipe.go). 4 KiB matches the paper's pipe capacity, so
// a FIFO pipe is exactly one segment and a default socket ring at most
// sixteen.
const SegSize = 4096

// segs is the ring-segment free list. It is deliberately separate from
// the size classes above even though a class of the same capacity
// exists: segments are the highest-churn pool in the system (every byte
// through every simulated socket crosses one), and giving them their own
// pool and counters keeps the kernel's buffer-memory telemetry
// (segment_gets / segment_puts / segment_misses in kernel Metrics())
// untangled from httpd read buffers and disk chunks sharing the 4 KiB
// class.
var segs = class{size: SegSize}

var (
	segGets   atomic.Uint64
	segPuts   atomic.Uint64
	segMisses atomic.Uint64
)

// GetSeg returns one ring segment (len and cap SegSize), owned
// exclusively by the caller until PutSeg.
func GetSeg() []byte {
	segGets.Add(1)
	if v := segs.pool.Get(); v != nil {
		bp := v.(*[]byte)
		b := *bp
		*bp = nil
		boxes.Put(bp)
		trackGet(b)
		return b
	}
	segMisses.Add(1)
	return make([]byte, SegSize)
}

// PutSeg returns a segment obtained from GetSeg. The same ownership
// rules as Put apply: no view of the segment may be retained, and under
// -race builds the segment is poisoned and double puts panic.
func PutSeg(b []byte) {
	if cap(b) != SegSize {
		panic(fmt.Sprintf("bufpool: PutSeg of foreign buffer (cap %d, want %d)", cap(b), SegSize))
	}
	segPuts.Add(1)
	b = b[:SegSize]
	trackPut(b)
	bp := boxes.Get().(*[]byte)
	*bp = b
	segs.pool.Put(bp)
}

// SegGets reports the number of GetSeg calls.
func SegGets() uint64 { return segGets.Load() }

// SegPuts reports the number of PutSeg calls.
func SegPuts() uint64 { return segPuts.Load() }

// SegMisses reports GetSegs served by a fresh allocation.
func SegMisses() uint64 { return segMisses.Load() }

// SegOutstanding reports segments handed out and not yet returned —
// exactly the allocated buffer memory (in SegSize units) of every
// elastic ring in the process.
func SegOutstanding() int64 { return int64(segGets.Load()) - int64(segPuts.Load()) }

// Gets reports the number of Get calls.
func Gets() uint64 { return gets.Load() }

// Puts reports the number of Put calls.
func Puts() uint64 { return puts.Load() }

// Misses reports Gets served by a fresh allocation instead of a pooled
// buffer (cold pool, or a request beyond the largest class).
func Misses() uint64 { return misses.Load() }

// Outstanding reports Get calls not yet matched by a Put — buffers the
// callers still own. A steady-state leak shows up as monotonic growth.
func Outstanding() int64 { return int64(gets.Load()) - int64(puts.Load()) }

var (
	metricsOnce sync.Once
	metrics     *stats.Registry
)

// Metrics returns the pool's stats registry (gets / puts / misses
// counters and the outstanding gauge), for merging into -stats output.
func Metrics() *stats.Registry {
	metricsOnce.Do(func() {
		metrics = stats.NewRegistry()
		metrics.CounterFunc("gets", Gets)
		metrics.CounterFunc("puts", Puts)
		metrics.CounterFunc("misses", Misses)
		metrics.GaugeFunc("outstanding", Outstanding)
		metrics.CounterFunc("segment_gets", SegGets)
		metrics.CounterFunc("segment_puts", SegPuts)
		metrics.CounterFunc("segment_misses", SegMisses)
		metrics.GaugeFunc("segment_outstanding", SegOutstanding)
	})
	return metrics
}
