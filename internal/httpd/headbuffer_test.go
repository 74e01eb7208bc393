package httpd

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"time"
	"unsafe"
)

// specHeadBuffer is HeadBuffer as it was before it consumed by offset:
// every take and Discard moves the rest of the buffer to the front, and
// every take rescans from byte 0. It is the model the real buffer is held
// to by checkHeadBufferModel.
type specHeadBuffer struct {
	buf []byte
}

func (h *specHeadBuffer) Feed(p []byte) (string, error) {
	h.buf = append(h.buf, p...)
	return h.take()
}

func (h *specHeadBuffer) Pending() (string, error) { return h.take() }

func (h *specHeadBuffer) Buffered() int { return len(h.buf) }

func (h *specHeadBuffer) Reset() { h.buf = h.buf[:0] }

func (h *specHeadBuffer) Discard(n int) int {
	if n > len(h.buf) {
		n = len(h.buf)
	}
	h.buf = append(h.buf[:0], h.buf[n:]...)
	return n
}

func (h *specHeadBuffer) pushBack(p []byte) { h.buf = append(h.buf, p...) }

func (h *specHeadBuffer) startBody(req *Request) (cl, remaining int64) {
	v := req.Header("content-length")
	if v == "" {
		return 0, 0
	}
	cl, err := strconv.ParseInt(v, 10, 64)
	if err != nil || cl <= 0 {
		return 0, 0
	}
	return cl, cl - int64(h.Discard(int(min(cl, int64(len(h.buf))))))
}

func (h *specHeadBuffer) take() (string, error) {
	if i := specIndexCRLFCRLF(h.buf); i >= 0 {
		if i+4 > MaxHeadBytes {
			return "", fmt.Errorf("%w: head exceeds %d bytes", ErrMalformedRequest, MaxHeadBytes)
		}
		head := string(h.buf[:i+4])
		rest := h.buf[i+4:]
		h.buf = append(h.buf[:0], rest...)
		return head, nil
	}
	if len(h.buf) >= MaxHeadBytes {
		return "", fmt.Errorf("%w: head exceeds %d bytes", ErrMalformedRequest, MaxHeadBytes)
	}
	return "", nil
}

func specIndexCRLFCRLF(b []byte) int {
	for i := 0; i+3 < len(b); i++ {
		if b[i] == '\r' && b[i+1] == '\n' && b[i+2] == '\r' && b[i+3] == '\n' {
			return i
		}
	}
	return -1
}

// checkHeadBufferModel drives a HeadBuffer and the spec with the same
// script and fails at the first step where a head, an error, a Discard or
// startBody result, or Buffered differs. Each script byte picks an operation; the
// bytes after it are its argument. Chunk bytes come from a small alphabet
// heavy in CR and LF, so heads end often and pipelined ones pile up.
func checkHeadBufferModel(t *testing.T, script []byte) {
	const alphabet = "\r\n\r\nGa:"
	next := func() int {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return int(b)
	}
	chunk := func() []byte {
		p := make([]byte, next()%48)
		for i := range p {
			p[i] = alphabet[next()%len(alphabet)]
		}
		return p
	}
	var real HeadBuffer
	var spec specHeadBuffer
	for step := 0; len(script) > 0; step++ {
		var op string
		var gotHead, wantHead string
		var gotErr, wantErr error
		var got, want [2]int64
		switch code := next(); code % 8 {
		case 0, 1:
			p := chunk()
			op = fmt.Sprintf("Feed(%q)", p)
			gotHead, gotErr = real.Feed(p)
			wantHead, wantErr = spec.Feed(p)
		case 2:
			// Big enough, over a few steps, to cross MaxHeadBytes.
			p := bytes.Repeat([]byte{'a'}, next()*40)
			op = fmt.Sprintf("Feed(%d bytes)", len(p))
			gotHead, gotErr = real.Feed(p)
			wantHead, wantErr = spec.Feed(p)
		case 3:
			op = "Pending()"
			gotHead, gotErr = real.Pending()
			wantHead, wantErr = spec.Pending()
		case 4:
			n := next() % 64
			op = fmt.Sprintf("Discard(%d)", n)
			got[0], want[0] = int64(real.Discard(n)), int64(spec.Discard(n))
		case 5:
			op = "Reset()"
			real.Reset()
			spec.Reset()
		case 6:
			head := "GET / HTTP/1.1\r\n\r\n"
			if cl := next() % 64; cl > 0 {
				head = "GET / HTTP/1.1\r\nContent-Length: " + strconv.Itoa(cl) + "\r\n\r\n"
			}
			var req Request
			if err := ParseRequestInto(&req, head); err != nil {
				t.Fatal(err)
			}
			op = fmt.Sprintf("startBody(%q)", head)
			got[0], got[1] = real.startBody(&req)
			want[0], want[1] = spec.startBody(&req)
		case 7:
			// The drains' contract: pushBack, then Pending.
			p := chunk()
			op = fmt.Sprintf("pushBack(%q); Pending()", p)
			real.pushBack(p)
			spec.pushBack(p)
			gotHead, gotErr = real.Pending()
			wantHead, wantErr = spec.Pending()
		}
		if gotHead != wantHead || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || got != want {
			t.Fatalf("step %d %s: got %q, %v, %v; the spec says %q, %v, %v",
				step, op, gotHead, gotErr, got, wantHead, wantErr, want)
		}
		if g, w := real.Buffered(), spec.Buffered(); g != w {
			t.Fatalf("step %d %s: Buffered = %d, the spec says %d", step, op, g, w)
		}
	}
}

// TestHeadBufferModel holds HeadBuffer to the compact-on-take spec over
// seeded random scripts of every operation.
func TestHeadBufferModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	script := make([]byte, 600)
	for i := 0; i < 300; i++ {
		rng.Read(script)
		checkHeadBufferModel(t, script)
	}
}

// FuzzHeadBufferModel is TestHeadBufferModel's check over fuzzed scripts.
func FuzzHeadBufferModel(f *testing.F) {
	f.Add([]byte{0, 20, 2, 3, 1, 0, 3, 0, 3, 0, 3})
	f.Add([]byte{0, 4, 0, 1, 0, 1, 0, 4, 0, 1, 0, 1, 0, 10, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1})
	f.Add([]byte{2, 255, 2, 255, 3, 5, 2, 200})
	f.Add([]byte{0, 8, 0, 1, 0, 1, 6, 9, 7, 6, 5, 5, 5, 5, 0, 1, 0, 1, 3, 4, 3})
	f.Fuzz(checkHeadBufferModel)
}

// TestHeadBufferTrickleLinear pins the head scan to linear time. A head
// trickled in one byte per Feed — how a slowloris client delivers it —
// must cost about as much per byte at 16 KB as at 2 KB. A scan that
// restarts at byte 0 on every Feed costs about 8× as much per byte at the
// larger size. Each size keeps its fastest of several runs, so a stall of
// the host does not count.
func TestHeadBufferTrickleLinear(t *testing.T) {
	perByte := func(n int) float64 {
		head := append(bytes.Repeat([]byte{'a'}, n-4), "\r\n\r\n"...)
		var hb HeadBuffer
		best := time.Duration(math.MaxInt64)
		for range 20 {
			hb.Reset()
			start := time.Now()
			for i := range head {
				got, err := hb.Feed(head[i : i+1])
				if err != nil || (got != "") != (i == len(head)-1) {
					t.Fatalf("%d-byte head, byte %d: %d-byte head, %v", n, i, len(got), err)
				}
			}
			best = min(best, time.Since(start))
		}
		return float64(best) / float64(n)
	}
	small, large := perByte(2<<10), perByte(MaxHeadBytes-13)
	if ratio := large / small; ratio > 3 {
		t.Errorf("a byte of a trickled 16 KB head costs %.1f× one of a 2 KB head (%.1f vs %.1f ns); a linear scan costs about 1×",
			ratio, large, small)
	}
}

// TestConnFootprint pins the connection record to the 256-byte size class
// every parked connection pays for (ROADMAP item 5c folds it, with the
// TCB and the rest, into one slab record). A field that pushes it past
// 256 costs 32 more bytes per connection, in the 288-byte class.
func TestConnFootprint(t *testing.T) {
	if got := unsafe.Sizeof(conn{}); got > 256 {
		t.Errorf("conn is %d bytes, budget 256 — its size class grew", got)
	}
}
