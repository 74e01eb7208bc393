package bench

import (
	"testing"

	"hybrid/internal/bufpool"
	"hybrid/internal/core"
	"hybrid/internal/httpd"
	"hybrid/internal/iovec"
	"hybrid/internal/tcp"
)

// Allocation budgets for the hot paths this package benchmarks. The
// bounds carry headroom over the measured numbers (recorded in
// EXPERIMENTS.md) so scheduler noise does not flake them, while still
// failing loudly if a change reverts the zero-copy or
// continuation-flattening work: the cached-serve path cost 59 allocs/op
// before the zero-copy PR, 15 before the flattened serve loop, 1 (64 B,
// the request head's copy) after it, and nothing since request heads are
// views of the connection's head buffer; the segment roundtrip allocated
// a fresh wire buffer and payload copy per segment.

// serveCachedFileBytes is the payload size benchServeCached serves — the
// figures' 16 KB file.
const serveCachedFileBytes = 16 * 1024

// scriptedTransport is an httpd.Transport whose reads replay the same
// request head n times and whose writes are discarded after accounting.
// It isolates the server's per-request serve path (head parse, cache
// lookup, response assembly) from any socket machinery.
type scriptedTransport struct {
	req    []byte
	n      int
	wrote  uint64
	closed bool
}

func (s *scriptedTransport) Read(p []byte) core.M[int] {
	return core.NBIO(func() int {
		if s.n == 0 {
			return 0
		}
		s.n--
		return copy(p, s.req)
	})
}

func (s *scriptedTransport) Write(p []byte) core.M[int] {
	return core.NBIO(func() int {
		s.wrote += uint64(len(p))
		return len(p)
	})
}

func (s *scriptedTransport) Close() core.M[core.Unit] {
	return core.Do(func() { s.closed = true })
}

// WriteCell is the write the serve loop answers cache hits with: the M is
// applied once per connection and its trace re-forced per response, reading
// whatever *cell holds at force time.
func (s *scriptedTransport) WriteCell(cell *[]byte) core.M[int] {
	return core.NBIO(func() int {
		p := *cell
		s.wrote += uint64(len(p))
		return len(p)
	})
}

// benchServeCached measures the cached-serve path end to end: one
// persistent connection issuing b.N keep-alive GETs that all hit the
// cache. Per op: request head parse, cache lookup, response head, body
// write — the path Figure 19's mostly-cached workload spends its time
// on.
func benchServeCached(b *testing.B) {
	s := NewSite(Spec{
		Files: 1, FileBytes: serveCachedFileBytes,
		Server: httpd.ServerConfig{CacheBytes: 1 << 20},
	})
	defer s.Close()
	s.Warm()
	req := []byte("GET /file-0 HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\r\n")

	b.SetBytes(serveCachedFileBytes)
	b.ReportAllocs()
	b.ResetTimer()
	t := &scriptedTransport{req: req, n: b.N}
	s.Run(s.Srv.ServeTransport(t))
	b.StopTimer()
	want := uint64(b.N) * uint64(serveCachedFileBytes)
	if t.wrote < want {
		b.Fatalf("served %d body bytes, want >= %d", t.wrote, want)
	}
}

func TestServeCachedAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed budget check")
	}
	r := testing.Benchmark(benchServeCached)
	if a, b := r.AllocsPerOp(), r.AllocedBytesPerOp(); a != 0 || b != 0 {
		t.Fatalf("cached serve: %d allocs/op and %d B/op, want 0 and 0", a, b)
	}
}

func TestSegmentRoundtripAllocs(t *testing.T) {
	payload := make([]byte, 1024)
	v := iovec.FromBytes(payload)
	// One allocation per roundtrip: the decoded *Segment. The wire
	// buffer is pooled and the payload is a borrowed view on both sides.
	const maxAllocs = 2
	n := testing.AllocsPerRun(500, func() {
		seg := &tcp.Segment{
			SrcPort: 4242, DstPort: 80, Seq: 7, Ack: 8,
			Flags: tcp.FlagACK, Window: 1 << 16, Payload: v,
		}
		wire := bufpool.Get(seg.WireLen())
		seg.EncodeTo(wire)
		d, err := tcp.Decode(wire)
		if err != nil || d.Payload.Len() != len(payload) {
			t.Fatal("roundtrip failed")
		}
		bufpool.Put(wire)
	})
	if n > maxAllocs {
		t.Fatalf("segment roundtrip allocates %v per run, want <= %d", n, maxAllocs)
	}
}
