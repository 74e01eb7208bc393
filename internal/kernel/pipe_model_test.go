package kernel

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"hybrid/internal/bufpool"
)

// pipeModel is the executable specification the elastic chunked ring is
// checked against: a flat byte queue with a logical capacity and the
// exact close/EOF/EPIPE ordering rules of the original flat-ring
// implementation. Every observable of pipe — the (n, err) of each read
// and write, the bytes delivered, and both ends' readiness — must match
// this model under arbitrary interleavings.
type pipeModel struct {
	cp          int
	buf         []byte
	readClosed  bool
	writeClosed bool
}

func (m *pipeModel) read(n int) ([]byte, error) {
	if m.readClosed {
		return nil, ErrBadFD
	}
	if len(m.buf) == 0 {
		if m.writeClosed {
			return nil, nil // EOF
		}
		return nil, ErrAgain
	}
	if n > len(m.buf) {
		n = len(m.buf)
	}
	out := append([]byte(nil), m.buf[:n]...)
	m.buf = m.buf[n:]
	return out, nil
}

func (m *pipeModel) write(b []byte) (int, error) {
	if m.writeClosed {
		return 0, ErrBadFD
	}
	if m.readClosed {
		return 0, ErrPipe
	}
	space := m.cp - len(m.buf)
	if space == 0 {
		return 0, ErrAgain
	}
	n := len(b)
	if n > space {
		n = space
	}
	m.buf = append(m.buf, b[:n]...)
	return n, nil
}

func (m *pipeModel) closeRead() error {
	if m.readClosed {
		return ErrClosed
	}
	m.readClosed = true
	m.buf = nil
	return nil
}

func (m *pipeModel) closeWrite() error {
	if m.writeClosed {
		return ErrClosed
	}
	m.writeClosed = true
	return nil
}

func (m *pipeModel) readReadiness() Event {
	var ev Event
	if len(m.buf) > 0 || m.writeClosed {
		ev |= EventRead
	}
	if m.writeClosed {
		ev |= EventHup
	}
	return ev
}

func (m *pipeModel) writeReadiness() Event {
	var ev Event
	if len(m.buf) < m.cp || m.readClosed {
		ev |= EventWrite
	}
	if m.readClosed {
		ev |= EventHup
	}
	return ev
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return errors.Is(a, b)
}

// TestPipeMatchesFlatModel drives the elastic ring and the flat model
// through the same random operation sequences — reads and writes of
// sizes straddling segment boundaries and the logical capacity, plus
// close interleavings — and requires identical observables at every
// step. Capacities are chosen to cover sub-segment pipes, non-multiples
// of the segment size, exact multiples, and the default socket ring.
// A random half of the writes lend their bytes (Kernel.WriteRef's path) against
// the same flat model: a lent write must look like any other write. Each
// lent payload is checked against a saved copy after the run, so the ring
// never wrote into memory it only borrowed. A third of the reads discard
// (Kernel.Discard's path): to the model a discard is a read whose bytes
// are dropped.
func TestPipeMatchesFlatModel(t *testing.T) {
	caps := []int{
		1, 5, 100, 4095, 4096, 4097, 10000,
		DefaultPipeBuffer, 3 * bufpool.SegSize, DefaultSocketBuffer,
	}
	for _, cp := range caps {
		cp := cp
		t.Run(fmt.Sprintf("cap=%d", cp), func(t *testing.T) {
			var droppedPooled, droppedLent, droppedEOF bool // discard coverage
			for seed := int64(0); seed < 8; seed++ {
				rng := rand.New(rand.NewSource(seed*7919 + int64(cp)))
				p := newPipe(nil, cp)
				m := &pipeModel{cp: cp}
				var next byte // deterministic payload stream
				var lent, saved [][]byte
				// read reads or, with b nil, discards n bytes from both.
				read := func(step int, b []byte, n int) (int, error) {
					gn, gerr := p.readData(b, n)
					want, werr := m.read(n)
					if gn != len(want) || !sameErr(gerr, werr) {
						t.Fatalf("seed %d step %d: read(%d, drop=%v) = (%d, %v), model (%d, %v)",
							seed, step, n, b == nil, gn, gerr, len(want), werr)
					}
					if b != nil && !bytes.Equal(b[:gn], want) {
						t.Fatalf("seed %d step %d: read bytes diverge from model", seed, step)
					}
					return gn, gerr
				}
				for step := 0; step < 2000; step++ {
					switch op := rng.Intn(100); {
					case op < 45: // write
						n := rng.Intn(cp+bufpool.SegSize) + 1
						b := make([]byte, n)
						for i := range b {
							b[i] = next
							next++
						}
						lend := rng.Intn(2) == 0
						if lend {
							lent = append(lent, b)
							saved = append(saved, append([]byte(nil), b...))
						}
						gn, gerr := p.writeData(b, lend)
						wn, werr := m.write(b)
						if gn != wn || !sameErr(gerr, werr) {
							t.Fatalf("seed %d step %d: write(%d) = (%d, %v), model (%d, %v)",
								seed, step, n, gn, gerr, wn, werr)
						}
						if gn < n {
							// Short write: resync the payload stream so the
							// model and pipe stay aligned.
							next -= byte(n - gn)
						}
					case op < 90: // read, or a third of the time discard
						n := rng.Intn(cp+bufpool.SegSize) + 1
						var b []byte
						if rng.Intn(3) != 0 {
							b = make([]byte, n)
						} else if len(p.segs) > 0 {
							lentFront := cap(p.segs[0]) != bufpool.SegSize
							droppedLent = droppedLent || lentFront
							droppedPooled = droppedPooled || !lentFront
						}
						read(step, b, n)
					case op < 93 && !m.readClosed && seed%2 == 1: // close read end; even seeds end in a discard to EOF
						gerr := p.closeRead()
						werr := m.closeRead()
						if !sameErr(gerr, werr) {
							t.Fatalf("seed %d step %d: closeRead = %v, model %v", seed, step, gerr, werr)
						}
					case op < 96 && !m.writeClosed: // close write end
						gerr := p.closeWrite()
						werr := m.closeWrite()
						if !sameErr(gerr, werr) {
							t.Fatalf("seed %d step %d: closeWrite = %v, model %v", seed, step, gerr, werr)
						}
					}
					p.mu.Lock()
					rr, wr := p.readReadiness(), p.writeReadiness()
					count := p.count
					nsegs, pooled := len(p.segs), 0
					for _, s := range p.segs {
						if cap(s) == bufpool.SegSize {
							pooled++
						} else if cap(s) != len(s) || len(s) <= bufpool.SegSize {
							p.mu.Unlock()
							t.Fatalf("seed %d step %d: entry len %d cap %d is neither pooled nor lent", seed, step, len(s), cap(s))
						}
					}
					p.mu.Unlock()
					if rr != m.readReadiness() || wr != m.writeReadiness() {
						t.Fatalf("seed %d step %d: readiness (R=%v W=%v), model (R=%v W=%v)",
							seed, step, rr, wr, m.readReadiness(), m.writeReadiness())
					}
					if count != len(m.buf) {
						t.Fatalf("seed %d step %d: count %d, model %d", seed, step, count, len(m.buf))
					}
					// Elasticity: pooled allocation tracks occupancy, never
					// the logical capacity, and a drained pipe holds nothing.
					if want := (count + bufpool.SegSize - 1) / bufpool.SegSize; pooled > want+1 {
						t.Fatalf("seed %d step %d: %d pooled segments held for %d bytes", seed, step, pooled, count)
					}
					if count == 0 && nsegs != 0 && !m.readClosed {
						t.Fatalf("seed %d step %d: drained pipe holds %d segments", seed, step, nsegs)
					}
				}
				// Unless the read end closed, discard to EOF.
				if !m.readClosed {
					if !m.writeClosed {
						p.closeWrite()
						m.closeWrite()
					}
					for {
						n, err := read(-1, nil, rng.Intn(cp+bufpool.SegSize)+1)
						if n == 0 && err == nil {
							droppedEOF = true
							break
						}
					}
				}
				for i := range lent {
					if !bytes.Equal(lent[i], saved[i]) {
						t.Fatalf("seed %d: lent payload %d was written into", seed, i)
					}
				}
			}
			// The discards reached a pooled front entry, EOF, and — where
			// the capacity admits a loan — a lent one.
			if !droppedPooled || !droppedEOF || (cp > bufpool.SegSize && !droppedLent) {
				t.Errorf("discards reached a pooled entry %v, a lent one %v, EOF %v",
					droppedPooled, droppedLent, droppedEOF)
			}
		})
	}
}

// allocatedBytes reports the buffer memory currently held by the pipe
// (pooled segments only: the capacity a parked connection actually
// costs, as opposed to the logical cp it may grow to).
func (p *pipe) allocatedBytes() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, s := range p.segs {
		if cap(s) == bufpool.SegSize {
			n += bufpool.SegSize
		}
	}
	return n
}

// TestPipeShrinksToZero pins the capacity claim directly: filling a
// socket-sized pipe allocates segments on demand, draining it returns
// every one, and a freshly created pipe allocates none at all.
func TestPipeShrinksToZero(t *testing.T) {
	p := newPipe(nil, DefaultSocketBuffer)
	if got := p.allocatedBytes(); got != 0 {
		t.Fatalf("new pipe holds %d buffer bytes, want 0", got)
	}
	payload := make([]byte, DefaultSocketBuffer)
	if n, err := p.writeData(payload, false); n != DefaultSocketBuffer || err != nil {
		t.Fatalf("fill = (%d, %v)", n, err)
	}
	if got := p.allocatedBytes(); got != DefaultSocketBuffer {
		t.Fatalf("full pipe holds %d buffer bytes, want %d", got, DefaultSocketBuffer)
	}
	// Partial drain frees the drained prefix's segments.
	if _, err := p.readData(payload, 3*bufpool.SegSize+1); err != nil {
		t.Fatal(err)
	}
	if got, max := p.allocatedBytes(), DefaultSocketBuffer-3*bufpool.SegSize; got > max {
		t.Fatalf("partially drained pipe holds %d buffer bytes, want <= %d", got, max)
	}
	for {
		n, err := p.readData(payload, len(payload))
		if errors.Is(err, ErrAgain) {
			break
		}
		if err != nil || n == 0 {
			t.Fatalf("drain = (%d, %v)", n, err)
		}
	}
	if got := p.allocatedBytes(); got != 0 {
		t.Fatalf("drained pipe holds %d buffer bytes, want 0", got)
	}
}

// TestPipeCloseReleasesBufferedData pins the close path: data parked in a
// pipe whose read side closes can never be delivered, so its segments go
// back to the pool immediately rather than riding the descriptor until
// the peer notices.
func TestPipeCloseReleasesBufferedData(t *testing.T) {
	p := newPipe(nil, DefaultSocketBuffer)
	if _, err := p.writeData(make([]byte, 9000), false); err != nil {
		t.Fatal(err)
	}
	if p.allocatedBytes() == 0 {
		t.Fatal("buffered pipe holds no segments")
	}
	if err := p.closeRead(); err != nil {
		t.Fatal(err)
	}
	if got := p.allocatedBytes(); got != 0 {
		t.Fatalf("closed pipe holds %d buffer bytes, want 0", got)
	}
	if _, err := p.writeData([]byte("x"), false); !errors.Is(err, ErrPipe) {
		t.Fatalf("write after closeRead: %v, want EPIPE", err)
	}
}

// BenchmarkPipeThroughput measures the hot copy path: streaming through
// a socket-sized pipe in MSS-shaped writes against a draining reader.
// The flat ring moved every byte through a per-byte modulo; the chunked
// ring copies at most one contiguous run per spanned segment.
func BenchmarkPipeThroughput(b *testing.B) {
	p := newPipe(nil, DefaultSocketBuffer)
	wbuf := make([]byte, 1460)
	rbuf := make([]byte, 4096)
	b.SetBytes(int64(len(wbuf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for {
			if _, err := p.writeData(wbuf, false); !errors.Is(err, ErrAgain) {
				break
			}
			// Full: drain a chunk and retry.
			if _, err := p.readData(rbuf, len(rbuf)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	for {
		if _, err := p.readData(rbuf, len(rbuf)); errors.Is(err, ErrAgain) {
			break
		}
	}
}

// BenchmarkPipeLargeWrite measures full-buffer writes and reads — the
// worst case for the old per-byte loop (65536 modulo operations per
// call), the best case for contiguous segment copies.
func BenchmarkPipeLargeWrite(b *testing.B) {
	p := newPipe(nil, DefaultSocketBuffer)
	buf := make([]byte, DefaultSocketBuffer)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, err := p.writeData(buf, false); n != len(buf) || err != nil {
			b.Fatalf("write = (%d, %v)", n, err)
		}
		if n, err := p.readData(buf, len(buf)); n != len(buf) || err != nil {
			b.Fatalf("read = (%d, %v)", n, err)
		}
	}
}
