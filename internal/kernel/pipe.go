package kernel

import (
	"sync"

	"hybrid/internal/bufpool"
	"hybrid/internal/waitq"
)

// DefaultPipeBuffer is the FIFO pipe capacity used throughout the
// evaluation; the paper's pipes buffer 4 KB.
const DefaultPipeBuffer = 4096

// pipe is a unidirectional FIFO byte stream with a bounded elastic
// buffer, the kernel object behind both FIFO pipes and each direction of
// a stream socket.
//
// The buffer is an elastic chunked ring: a deque of fixed-size segments
// (bufpool.SegSize) drawn from the shared segment pool, allocated lazily
// on first write, grown on demand up to the pipe's logical capacity, and
// released back to the pool as they drain — a fully drained pipe holds no
// buffer memory at all. This is the difference between ~137 KB and ~7 KB
// per parked connection at C10M scale: the old implementation eagerly
// allocated a flat 64 KB ring per direction at socket creation, whether
// or not a byte ever flowed.
//
// All flow-control semantics key off the LOGICAL capacity (cp), never the
// allocated bytes: readiness, EAGAIN boundaries, and short-write counts
// are byte-for-byte identical to the flat ring, so figure outputs and
// trace shapes do not move.
//
// A write of bytes that never change (Kernel.WriteRef, a cache hit sent by
// reference) may lend its accepted part to the ring instead of copying
// it: an entry longer than bufpool.SegSize is such a loan — the ring
// reads it and drops the reference, and never writes into it or hands it
// to bufpool. Shorter writes copy as before, so cap marks ownership. A
// reader that keeps nothing (Kernel.Discard) drains through the same loop
// with no destination: entries leave the ring as a read would take them,
// and nothing is copied.
//
// Segment layout invariants (guarded by mu):
//   - each entry's len is its filled end; segs[0] is read from offset
//     head; pooled entries have cap bufpool.SegSize, lent ones have
//     cap == len > bufpool.SegSize; only the last entry can be partly
//     filled, and it is written at its len.
//   - count is the total unread bytes; len(segs) == 0 implies
//     count == 0 && head == 0.
type pipe struct {
	k           *Kernel // delivers the watches' wakeups
	mu          sync.Mutex
	cp          int      // logical capacity (the EAGAIN/readiness boundary)
	segs        [][]byte // chunk deque; nil/empty when drained
	head        int      // read offset into segs[0]
	count       int
	readClosed  bool
	writeClosed bool
	readers     waitq.List // watches on the read end
	writers     waitq.List // watches on the write end
}

func newPipe(k *Kernel, size int) *pipe {
	if size <= 0 {
		size = DefaultPipeBuffer
	}
	return &pipe{k: k, cp: size}
}

// readReadiness computes the read end's level-triggered readiness. Called
// with p.mu held.
func (p *pipe) readReadiness() Event {
	var ev Event
	if p.count > 0 || p.writeClosed {
		ev |= EventRead
	}
	if p.writeClosed {
		ev |= EventHup
	}
	return ev
}

// writeReadiness computes the write end's readiness. Called with p.mu held.
func (p *pipe) writeReadiness() Event {
	var ev Event
	if p.count < p.cp || p.readClosed {
		ev |= EventWrite
	}
	if p.readClosed {
		ev |= EventHup
	}
	return ev
}

// releaseHeadLocked returns the fully drained front segment to the pool,
// or drops it if it was lent. Called with p.mu held.
func (p *pipe) releaseHeadLocked() {
	s := p.segs[0]
	n := len(p.segs)
	copy(p.segs, p.segs[1:])
	p.segs[n-1] = nil
	p.segs = p.segs[:n-1]
	p.head = 0
	putSeg(s)
}

// putSeg returns a pooled segment; a lent one is only dropped.
func putSeg(s []byte) {
	if cap(s) == bufpool.SegSize {
		bufpool.PutSeg(s)
	}
}

// releaseAllLocked drops every segment: the data can never be read again
// (the read side closed). Called with p.mu held.
func (p *pipe) releaseAllLocked() {
	for _, s := range p.segs {
		putSeg(s)
	}
	for i := range p.segs {
		p.segs[i] = nil
	}
	p.segs = nil
	p.head, p.count = 0, 0
}

// readData moves up to n buffered bytes into b, or drops them when b is
// nil (Kernel.Discard), returning EAGAIN when the pipe is empty and not
// EOF. A copying read passes n == len(b).
func (p *pipe) readData(b []byte, n int) (int, error) {
	p.mu.Lock()
	if p.readClosed {
		p.mu.Unlock()
		return 0, ErrBadFD
	}
	if p.count == 0 {
		if p.writeClosed {
			p.mu.Unlock()
			return 0, nil // EOF
		}
		p.mu.Unlock()
		return 0, ErrAgain
	}
	if n > p.count {
		n = p.count
	}
	// One copy per spanned segment, none when discarding; drained segments
	// go straight back to the pool (a lent one is only dropped), so a read
	// that empties the pipe leaves it holding nothing.
	got := 0
	for got < n {
		s := p.segs[0]
		c := min(n-got, len(s)-p.head)
		if b != nil {
			copy(b[got:got+c], s[p.head:])
		}
		p.head += c
		got += c
		if p.head == len(s) {
			p.releaseHeadLocked()
		}
	}
	p.count -= n
	// Space became available: wake write-side waiters.
	fired := p.writers.Take(uint8(p.writeReadiness()))
	p.mu.Unlock()
	p.k.fire(fired, EventWrite)
	return n, nil
}

// writeData copies up to len(b) bytes in, returning a short count when
// the logical capacity fills and EAGAIN when it was already full. With
// lend set, b never changes, and an accepted part longer than a segment
// is referenced instead of copied.
func (p *pipe) writeData(b []byte, lend bool) (int, error) {
	p.mu.Lock()
	if p.writeClosed {
		p.mu.Unlock()
		return 0, ErrBadFD
	}
	if p.readClosed {
		p.mu.Unlock()
		return 0, ErrPipe
	}
	space := p.cp - p.count
	if space == 0 {
		p.mu.Unlock()
		return 0, ErrAgain
	}
	n := len(b)
	if n > space {
		n = space
	}
	// One copy per spanned segment; the tail segment is topped up before
	// a new one is drawn from the pool. A lent entry is full (len == cap).
	src := b[:n]
	if lend && n > bufpool.SegSize {
		p.segs = append(p.segs, src[:n:n])
		src = nil
	}
	for len(src) > 0 {
		last := len(p.segs) - 1
		if last < 0 || len(p.segs[last]) == cap(p.segs[last]) {
			p.segs = append(p.segs, bufpool.GetSeg()[:0])
			last++
		}
		t := p.segs[last]
		c := copy(t[len(t):cap(t)], src)
		p.segs[last] = t[:len(t)+c]
		src = src[c:]
	}
	p.count += n
	fired := p.readers.Take(uint8(p.readReadiness()))
	p.mu.Unlock()
	p.k.fire(fired, EventRead)
	return n, nil
}

func (p *pipe) closeRead() error {
	p.mu.Lock()
	if p.readClosed {
		p.mu.Unlock()
		return ErrClosed
	}
	p.readClosed = true
	// Buffered data can never be delivered now; give its segments back.
	p.releaseAllLocked()
	// Writers see EPIPE from now on; wake them with HUP. Waiters parked
	// on the read end itself are woken too: a descriptor closed out from
	// under a blocked reader (a lifecycle shed) must fail that read now,
	// not when the peer eventually closes its side.
	fired := p.writers.Take(uint8(EventWrite | EventHup))
	orphaned := p.readers.Take(uint8(EventRead | EventHup))
	p.mu.Unlock()
	p.k.fire(fired, EventWrite|EventHup)
	p.k.fire(orphaned, EventRead|EventHup)
	return nil
}

func (p *pipe) closeWrite() error {
	p.mu.Lock()
	if p.writeClosed {
		p.mu.Unlock()
		return ErrClosed
	}
	p.writeClosed = true
	// Readers now see EOF once drained; that counts as readable. Waiters
	// parked on the write end itself are woken for the same reason as in
	// closeRead: their next write must fail immediately.
	fired := p.readers.Take(uint8(EventRead | EventHup))
	orphaned := p.writers.Take(uint8(EventWrite | EventHup))
	p.mu.Unlock()
	p.k.fire(fired, EventRead|EventHup)
	p.k.fire(orphaned, EventWrite|EventHup)
	return nil
}

// addReader and addWriter watch one end of the pipe (Kernel.park).
func (p *pipe) addReader(w *waitq.Waiter) {
	p.mu.Lock()
	p.k.park(&p.mu, p.readReadiness(), &p.readers, w)
}

func (p *pipe) addWriter(w *waitq.Waiter) {
	p.mu.Lock()
	p.k.park(&p.mu, p.writeReadiness(), &p.writers, w)
}

// pipeReadEnd and pipeWriteEnd adapt one pipe to the two descriptors.

type pipeReadEnd struct{ p *pipe }

func (e *pipeReadEnd) read(b []byte) (int, error) { return e.p.readData(b, len(b)) }
func (e *pipeReadEnd) write([]byte) (int, error)  { return 0, ErrInvalid }
func (e *pipeReadEnd) closeEnd() error            { return e.p.closeRead() }
func (e *pipeReadEnd) addWatch(w *waitq.Waiter)   { e.p.addReader(w) }

type pipeWriteEnd struct{ p *pipe }

func (e *pipeWriteEnd) read([]byte) (int, error)    { return 0, ErrInvalid }
func (e *pipeWriteEnd) write(b []byte) (int, error) { return e.p.writeData(b, false) }
func (e *pipeWriteEnd) closeEnd() error             { return e.p.closeWrite() }
func (e *pipeWriteEnd) addWatch(w *waitq.Waiter)    { e.p.addWriter(w) }

// NewPipe creates a FIFO pipe with the given buffer size (0 means
// DefaultPipeBuffer) and returns its read and write descriptors.
func (k *Kernel) NewPipe(bufSize int) (r FD, w FD) {
	p := newPipe(k, bufSize)
	return k.install(&pipeReadEnd{p: p}), k.install(&pipeWriteEnd{p: p})
}
