package bench

import (
	"fmt"
	"testing"

	"hybrid/internal/bufpool"
	"hybrid/internal/core"
	"hybrid/internal/disk"
	"hybrid/internal/hio"
	"hybrid/internal/httpd"
	"hybrid/internal/iovec"
	"hybrid/internal/kernel"
	"hybrid/internal/tcp"
	"hybrid/internal/timerwheel"
	"hybrid/internal/vclock"
)

// This file holds the hot-path microbenchmark bodies. They live in a
// non-test file so cmd/benchjson can run them programmatically via
// testing.Benchmark and record allocs/op and bytes/op into the
// BENCH_*.json trajectory; internal/bench's *_test.go wraps them as
// ordinary BenchmarkXxx functions for `go test -bench`.

// MicroFileBytes is the payload size served by BenchServeCached — the
// figures' 16 KB file.
const MicroFileBytes = 16 * 1024

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

// BenchServeCached measures the cached-serve path end to end: one
// persistent connection issuing b.N keep-alive GETs that all hit the
// cache. Per op: request head parse, cache lookup, response head, body
// write — the path Figure 19's mostly-cached workload spends its time
// on.
func BenchServeCached(b *testing.B) {
	clk := vclock.NewVirtual()
	k := kernel.New(clk)
	fs := kernel.NewFS(disk.New(clk, disk.BenchGeometry()))
	rt := core.NewRuntime(core.Options{Workers: 1, Clock: clk})
	defer rt.Shutdown()
	io := hio.New(rt, k, fs)
	defer io.Close()
	srv := httpd.NewServer(io, httpd.ServerConfig{CacheBytes: 1 << 20})

	payload := make([]byte, MicroFileBytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	srv.Cache().Put("file-0", payload)
	req := []byte("GET /file-0 HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\r\n")

	b.SetBytes(MicroFileBytes)
	b.ReportAllocs()
	b.ResetTimer()
	t := &scriptedTransport{req: req, n: b.N}
	done := make(chan struct{})
	rt.Spawn(core.Then(srv.ServeTransport(t), core.Do(func() { close(done) })))
	<-done
	b.StopTimer()
	want := uint64(b.N) * uint64(MicroFileBytes)
	if t.wrote < want {
		b.Fatalf("served %d body bytes, want >= %d", t.wrote, want)
	}
}

// BenchSegmentRoundtrip measures one TCP segment's trip through the wire
// boundary exactly as the stack performs it: encode into a pooled wire
// buffer (the sender path), decode and verify with the payload aliasing
// the buffer (the receiver path). The pooled buffer is returned only
// after the decoded view is dropped, like a receiver consuming in place.
func BenchSegmentRoundtrip(b *testing.B) {
	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	v := iovec.FromBytes(payload)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		seg := &tcp.Segment{
			SrcPort: 4242, DstPort: 80,
			Seq: uint32(i), Ack: uint32(i) + 1,
			Flags: tcp.FlagACK, Window: 1 << 16,
			Payload: v,
		}
		wire := bufpool.Get(seg.WireLen())
		seg.EncodeTo(wire)
		d, err := tcp.Decode(wire)
		if err != nil {
			b.Fatal(err)
		}
		sink += d.Seq + uint32(d.Payload.Len())
		bufpool.Put(wire)
	}
	if sink == 1 {
		b.Fatal("impossible") // keep the loop's results live
	}
}

// BenchSpawnRecycle measures thread spawn/death overhead: b.N trivial
// threads through the scheduler (TCB allocation, enqueue, dispatch,
// termination accounting).
func BenchSpawnRecycle(b *testing.B) {
	rt := core.NewRuntime(core.Options{Workers: 1, Clock: vclock.NewVirtual()})
	defer rt.Shutdown()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Spawn(core.Skip)
	}
	rt.WaitIdle()
}

// BenchTimerWheelRearm measures the per-ACK timer maintenance the TCP
// sender performs on every acknowledgement: cancel the pending RTO and
// arm a fresh one. The wheel is pre-loaded with 64k live deadlines — a
// fleet of idle connections each holding a reap timer — so the op cost
// is pinned at population, where a binary heap would pay O(log n) per
// rearm and the wheel pays a pointer splice.
func BenchTimerWheelRearm(b *testing.B) {
	clk := vclock.NewVirtual()
	clk.Enter() // Schedule/Stop require holding the clock; time stays frozen
	defer clk.Exit()
	w := timerwheel.New(clk)
	nop := func() {}
	const pending = 64 * 1024
	for i := 0; i < pending; i++ {
		// Spread the background deadlines across slots and levels the way
		// a mixed idle/retransmit population does.
		w.Schedule(vclock.Duration(10+i%4096)*1e6, nop)
	}
	rto := 200 * vclock.Duration(1e6)
	t := w.Schedule(rto, nop)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Stop()
		t = w.Schedule(rto+vclock.Duration(i%64)*1e6, nop)
	}
	b.StopTimer()
	if got := w.Stats().Stopped; got < uint64(b.N) {
		b.Fatalf("stopped %d timers, want >= %d", got, b.N)
	}
}

// benchSpin runs a tight loop of b.N NBIO probes under the given loop
// combinator on a one-worker virtual-clock runtime and reports trampoline
// steps/sec and allocs/step. Each iteration costs two trace nodes (the
// body's NBIO probe and the loop's trampoline bounce), so steps = 2·b.N.
func benchSpin(b *testing.B, loop func(core.M[bool]) core.M[core.Unit]) {
	rt := core.NewRuntime(core.Options{Workers: 1, Clock: vclock.NewVirtual()})
	defer rt.Shutdown()
	n := 0
	body := core.NBIO(func() bool {
		n++
		return n < b.N
	})
	done := make(chan struct{})
	b.ReportAllocs()
	b.ResetTimer()
	rt.Spawn(core.Then(loop(body), core.Do(func() { close(done) })))
	<-done
	b.StopTimer()
	b.ReportMetric(float64(2*b.N)/b.Elapsed().Seconds(), "steps/sec")
	if n < b.N {
		b.Fatalf("loop ran %d iterations, want %d", n, b.N)
	}
}

// BenchStepsPerSec measures raw trampoline throughput of the fused Loop
// spine: a thread spinning on an NBIO probe, zero allocations per
// iteration in steady state.
func BenchStepsPerSec(b *testing.B) { benchSpin(b, core.Loop) }

// BenchStepsPerSecNaive is the same spin through the naive closure-built
// Loop spelling — the "before" row of the fused/naive pair, and a live
// measurement of what continuation flattening buys.
func BenchStepsPerSecNaive(b *testing.B) { benchSpin(b, core.NaiveLoop) }

// Micro is one microbenchmark with the name its test wrapper exports.
type Micro struct {
	Name string
	Fn   func(*testing.B)
}

// Micros lists the hot-path microbenchmarks in a stable order for the
// JSON harness.
func Micros() []Micro {
	return []Micro{
		{"BenchmarkServeCached", BenchServeCached},
		{"BenchmarkSegmentRoundtrip", BenchSegmentRoundtrip},
		{"BenchmarkSpawnRecycle", BenchSpawnRecycle},
		{"BenchmarkTimerWheelRearm", BenchTimerWheelRearm},
	}
}

// CoreMicros lists the monadic-core microbenchmarks recorded in
// BENCH_core.json (Figure "core"): the fused trampoline spin and its
// naive-closure counterpart, kept as a pair so the trajectory shows the
// flattening delta directly.
func CoreMicros() []Micro {
	return []Micro{
		{"BenchmarkStepsPerSec", BenchStepsPerSec},
		{"BenchmarkStepsPerSecNaive", BenchStepsPerSecNaive},
	}
}

// RunMicro executes one microbenchmark with testing.Benchmark and
// returns its result as a RunStats row (Figure "micro").
func RunMicro(m Micro, label string) RunStats {
	r := testing.Benchmark(m.Fn)
	mbps := 0.0
	if r.T > 0 && r.Bytes > 0 {
		mbps = float64(r.Bytes) * float64(r.N) / float64(MB) / r.T.Seconds()
	}
	return RunStats{
		Figure:      "micro",
		System:      m.Name,
		Label:       label,
		X:           r.N,
		MBps:        mbps,
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// FormatMicro renders a benchmark row like `go test -bench` output.
func FormatMicro(rs RunStats) string {
	return fmt.Sprintf("%-28s %10d ops %10d ns/op %8.2f MB/s %8d B/op %6d allocs/op",
		rs.System, rs.X, rs.NsPerOp, rs.MBps, rs.BytesPerOp, rs.AllocsPerOp)
}
