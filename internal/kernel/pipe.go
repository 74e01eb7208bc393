package kernel

import (
	"sync"

	"hybrid/internal/bufpool"
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
// Segment layout invariants (guarded by mu):
//   - segs[0] is read from offset head; segs[len(segs)-1] is written at
//     offset tail; interior segments are full.
//   - with one segment, the filled range is [head, tail).
//   - count is the total filled bytes; len(segs) == 0 implies
//     count == 0 && head == 0 && tail == 0.
type pipe struct {
	k           *Kernel // delivers the watches' wakeups
	mu          sync.Mutex
	cp          int      // logical capacity (the EAGAIN/readiness boundary)
	segs        [][]byte // chunk deque; nil/empty when drained
	head        int      // read offset into segs[0]
	tail        int      // write offset into segs[len(segs)-1]
	count       int
	readClosed  bool
	writeClosed bool
	readers     waitList // watches on the read end
	writers     waitList // watches on the write end
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

// releaseHeadLocked returns the fully drained front segment to the pool.
// Called with p.mu held.
func (p *pipe) releaseHeadLocked() {
	s := p.segs[0]
	n := len(p.segs)
	if n == 1 {
		p.segs[0] = nil
		p.segs = p.segs[:0]
		p.head, p.tail = 0, 0
	} else {
		copy(p.segs, p.segs[1:])
		p.segs[n-1] = nil
		p.segs = p.segs[:n-1]
		p.head = 0
	}
	bufpool.PutSeg(s)
}

// releaseAllLocked drops every segment: the data can never be read again
// (the read side closed). Called with p.mu held.
func (p *pipe) releaseAllLocked() {
	for _, s := range p.segs {
		bufpool.PutSeg(s)
	}
	for i := range p.segs {
		p.segs[i] = nil
	}
	p.segs = nil
	p.head, p.tail, p.count = 0, 0, 0
}

// readData copies up to len(b) buffered bytes out, returning EAGAIN when
// the pipe is empty and not EOF.
func (p *pipe) readData(b []byte) (int, error) {
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
	n := len(b)
	if n > p.count {
		n = p.count
	}
	// One copy per spanned segment; drained segments go straight back to
	// the pool, so a read that empties the pipe leaves it holding nothing.
	got := 0
	for got < n {
		s := p.segs[0]
		end := bufpool.SegSize
		if len(p.segs) == 1 {
			end = p.tail
		}
		c := copy(b[got:n], s[p.head:end])
		p.head += c
		got += c
		if p.head == end {
			p.releaseHeadLocked()
		}
	}
	p.count -= n
	// Space became available: wake write-side waiters. The readiness
	// recomputation (and the fire-out below) is skipped entirely when no
	// watch is parked — the common case once a poll round has already
	// drained this edge.
	var buf [firedBuf]watch
	fired := buf[:0]
	if len(p.writers.watches) > 0 {
		fired = p.writers.collect(p.writeReadiness(), fired)
	}
	p.mu.Unlock()
	p.k.fireAll(fired, EventWrite)
	return n, nil
}

// writeData copies up to len(b) bytes in, returning a short count when
// the logical capacity fills and EAGAIN when it was already full.
func (p *pipe) writeData(b []byte) (int, error) {
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
	// a new one is drawn from the pool.
	src := b[:n]
	for len(src) > 0 {
		if len(p.segs) == 0 || p.tail == bufpool.SegSize {
			p.segs = append(p.segs, bufpool.GetSeg())
			p.tail = 0
		}
		t := p.segs[len(p.segs)-1]
		c := copy(t[p.tail:], src)
		p.tail += c
		src = src[c:]
	}
	p.count += n
	var buf [firedBuf]watch
	fired := buf[:0]
	if len(p.readers.watches) > 0 {
		fired = p.readers.collect(p.readReadiness(), fired)
	}
	p.mu.Unlock()
	p.k.fireAll(fired, EventRead)
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
	var fb, ob [firedBuf]watch
	fired := p.writers.collect(EventWrite|EventHup, fb[:0])
	orphaned := p.readers.collect(EventRead|EventHup, ob[:0])
	p.mu.Unlock()
	p.k.fireAll(fired, EventWrite|EventHup)
	p.k.fireAll(orphaned, EventRead|EventHup)
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
	var fb, ob [firedBuf]watch
	fired := p.readers.collect(EventRead|EventHup, fb[:0])
	orphaned := p.writers.collect(EventWrite|EventHup, ob[:0])
	p.mu.Unlock()
	p.k.fireAll(fired, EventRead|EventHup)
	p.k.fireAll(orphaned, EventWrite|EventHup)
	return nil
}

// addReader fires w now if the read end already satisfies its mask, and
// otherwise parks it — both under the pipe's lock, so no state change can
// slip between the check and the park.
func (p *pipe) addReader(w watch) {
	p.mu.Lock()
	if ev := p.readReadiness() & w.mask; ev != 0 {
		p.mu.Unlock()
		p.k.fire(w, ev)
		return
	}
	p.readers.add(w)
	p.mu.Unlock()
}

// addWriter is addReader for the write end.
func (p *pipe) addWriter(w watch) {
	p.mu.Lock()
	if ev := p.writeReadiness() & w.mask; ev != 0 {
		p.mu.Unlock()
		p.k.fire(w, ev)
		return
	}
	p.writers.add(w)
	p.mu.Unlock()
}

// allocatedBytes reports the buffer memory currently held by the pipe
// (diagnostics and tests; the capacity a parked connection actually
// costs, as opposed to the logical cp it may grow to).
func (p *pipe) allocatedBytes() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.segs) * bufpool.SegSize
}

// pipeReadEnd and pipeWriteEnd adapt one pipe to the two descriptors.

type pipeReadEnd struct{ p *pipe }

func (e *pipeReadEnd) read(b []byte) (int, error) { return e.p.readData(b) }
func (e *pipeReadEnd) write([]byte) (int, error)  { return 0, ErrInvalid }
func (e *pipeReadEnd) closeEnd() error            { return e.p.closeRead() }
func (e *pipeReadEnd) readiness() Event {
	e.p.mu.Lock()
	defer e.p.mu.Unlock()
	return e.p.readReadiness()
}
func (e *pipeReadEnd) addWatch(w watch) { e.p.addReader(w) }

type pipeWriteEnd struct{ p *pipe }

func (e *pipeWriteEnd) read([]byte) (int, error)    { return 0, ErrInvalid }
func (e *pipeWriteEnd) write(b []byte) (int, error) { return e.p.writeData(b) }
func (e *pipeWriteEnd) closeEnd() error             { return e.p.closeWrite() }
func (e *pipeWriteEnd) readiness() Event {
	e.p.mu.Lock()
	defer e.p.mu.Unlock()
	return e.p.writeReadiness()
}
func (e *pipeWriteEnd) addWatch(w watch) { e.p.addWriter(w) }

// NewPipe creates a FIFO pipe with the given buffer size (0 means
// DefaultPipeBuffer) and returns its read and write descriptors.
func (k *Kernel) NewPipe(bufSize int) (r FD, w FD) {
	p := newPipe(k, bufSize)
	return k.install(&pipeReadEnd{p: p}), k.install(&pipeWriteEnd{p: p})
}
