package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"hybrid/internal/bufpool"
	"hybrid/internal/core"
	"hybrid/internal/disk"
	"hybrid/internal/hio"
	"hybrid/internal/httpd"
	"hybrid/internal/iovec"
	"hybrid/internal/kernel"
	"hybrid/internal/loadgen"
	"hybrid/internal/netsim"
	"hybrid/internal/tcp"
	"hybrid/internal/tcp/tracecheck"
	"hybrid/internal/timerwheel"
	"hybrid/internal/vclock"
)

// A probe times one hop's exported functions in isolation: the unit cost
// of a layer, independent of any workload. ns per op is the median over
// probeBatches batches of a fixed op count; allocs per op is the
// allocation count over all of them.
type probe struct {
	name string // "<layer>.<hop>_ns[_per_kb|_per_req]"
	unit string
	ops  int // per batch
	kb   int // for per-KB probes, the KB one op moves; else 0
	// start builds the probe's fixture and returns the function that
	// performs n ops, and the fixture's teardown.
	start func() (run func(n int), stop func())
}

const probeBatches = 20

// allocsName is the probe's allocations-per-op metric: the name with
// everything from "_ns" on replaced.
func (p probe) allocsName() string {
	return p.name[:strings.Index(p.name, "_ns")] + "_allocs"
}

var probes = []probe{
	{name: "core.step_ns", unit: "ns", ops: 200_000, start: probeStep},
	{name: "core.spawn_ns", unit: "ns", ops: 20_000, start: probeSpawn},
	{name: "core.park_resume_ns", unit: "ns", ops: 20_000, start: probeParkResume},
	{name: "hio.sock_pingpong_ns", unit: "ns", ops: 5_000, start: probeSockPingPong},
	{name: "hio.sleep_ns", unit: "ns", ops: 10_000, start: probeSleep},
	{name: "kernel.sock_copy_ns_per_kb", unit: "ns/KB", ops: 2_000, kb: 16, start: probeSockCopy},
	{name: "kernel.conn_cycle_ns", unit: "ns", ops: 5_000, start: probeConnCycle},
	{name: "kernel.aio_read_ns_per_kb", unit: "ns/KB", ops: 100, kb: 16, start: probeAIORead},
	{name: "vclock.timer_ns", unit: "ns", ops: 20_000, start: probeTimer},
	{name: "timerwheel.rearm_ns", unit: "ns", ops: 100_000, start: probeWheelRearm},
	{name: "disk.request_ns", unit: "ns", ops: 6_400, start: probeDiskRequest},
	{name: "netsim.packet_ns", unit: "ns", ops: 6_400, start: probePacket},
	{name: "tcp.segment_roundtrip_ns", unit: "ns", ops: 5_000, start: probeSegment},
	{name: "tcp.bulk_ns_per_kb", unit: "ns/KB", ops: 1, kb: 1024, start: probeTCPBulk},
	{name: "httpd.parse_ns", unit: "ns", ops: 20_000, start: probeParse},
	{name: "httpd.head_render_ns", unit: "ns", ops: 100_000, start: probeHeadRender},
	{name: "httpd.cache_get_ns", unit: "ns", ops: 100_000, start: probeCacheGet},
	{name: "httpd.cache_put_evict_ns", unit: "ns", ops: 20_000, start: probeCachePutEvict},
	{name: "httpd.serve_cached_ns", unit: "ns", ops: 10_000, start: probeServeCached},
	{name: "loadgen.pump_ns_per_req", unit: "ns", ops: 2_000, start: probePump},
	{name: "bufpool.get_put_ns", unit: "ns", ops: 200_000, start: probeBufpool},
}

// runProbes times every probe and returns the metrics by name, with one
// span per probe.
func runProbes(tr *spans, quick bool) map[string]float64 {
	out := map[string]float64{}
	defer tr.begin("probes")()
	for _, p := range probes {
		end := tr.begin("probes." + p.name)
		ops, batches := p.ops, probeBatches
		if quick {
			ops, batches = max(1, ops/100), 3
		}
		run, stop := p.start()
		run(ops) // warm the fixture's pools and lazy paths
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		ns := make([]float64, batches)
		for i := range ns {
			t0 := time.Now()
			run(ops)
			ns[i] = float64(time.Since(t0).Nanoseconds()) / float64(ops)
		}
		runtime.ReadMemStats(&m1)
		stop()
		sort.Float64s(ns)
		med := ns[len(ns)/2]
		if p.kb > 0 {
			med /= float64(p.kb)
		}
		out[p.name] = med
		out[p.allocsName()] = float64(m1.Mallocs-m0.Mallocs) / float64(ops*batches)
		end()
	}
	return out
}

// fixture is the runtime a threaded probe runs on: one worker on a
// virtual clock that nobody holds, as in the workloads.
type fixture struct {
	clk *vclock.VirtualClock
	k   *kernel.Kernel
	rt  *core.Runtime
	io  *hio.IO
}

func newFixture() *fixture {
	clk := vclock.NewVirtual()
	k := kernel.New(clk)
	rt := core.NewRuntime(core.Options{Workers: 1, Clock: clk})
	return &fixture{clk: clk, k: k, rt: rt, io: hio.New(rt, k, nil)}
}

func (f *fixture) stop() {
	f.rt.Shutdown()
	f.io.Close()
}

// wait spawns m and blocks until it has run to completion.
func (f *fixture) wait(m core.M[core.Unit]) {
	done := make(chan struct{})
	f.rt.Spawn(core.Then(m, core.Do(func() { close(done) })))
	<-done
}

func discard[A any](m core.M[A]) core.M[core.Unit] {
	return core.Bind(m, func(A) core.M[core.Unit] { return core.Skip })
}

// probeStep: one iteration of the fused Loop spine — the body's NBIO
// node and the loop's trampoline bounce.
func probeStep() (func(int), func()) {
	f := newFixture()
	return func(n int) {
		i := 0
		f.wait(core.Loop(core.NBIO(func() bool { i++; return i < n })))
	}, f.stop
}

// probeSpawn: a trivial thread through Spawn, dispatch and retirement.
func probeSpawn() (func(int), func()) {
	f := newFixture()
	return func(n int) {
		for i := 0; i < n; i++ {
			f.rt.Spawn(core.Skip)
		}
		f.rt.WaitIdle()
	}, f.stop
}

// probeParkResume: a Suspend whose event fires at once — park, resume,
// re-enqueue, dispatch.
func probeParkResume() (func(int), func()) {
	f := newFixture()
	park := core.Suspend(func(resume func(core.Unit)) { resume(core.Unit{}) })
	return func(n int) { f.wait(core.RepeatN(n, park)) }, f.stop
}

// probeSockPingPong: a 1-byte round trip between two threads over a
// socket pair; each side parks in EpollWait once per trip.
func probeSockPingPong() (func(int), func()) {
	f := newFixture()
	a, b := f.k.SocketPair()
	one := []byte{1}
	bufA, bufB := make([]byte, 1), make([]byte, 1)
	f.rt.Spawn(core.Forever(core.Then(f.io.SockRead(b, bufB), discard(f.io.SockSend(b, one)))))
	trip := core.Then(f.io.SockSend(a, one), discard(f.io.SockRead(a, bufA)))
	return func(n int) { f.wait(core.RepeatN(n, trip)) }, f.stop
}

// probeSleep: io.Sleep on virtual time — a timer, a park, a clock
// advance and a resume.
func probeSleep() (func(int), func()) {
	f := newFixture()
	sleep := f.io.Sleep(time.Microsecond)
	return func(n int) { f.wait(core.RepeatN(n, sleep)) }, f.stop
}

// probeSockCopy: 16 KB written into and read out of a socket pair by
// direct system calls — the two pipe copies every response body pays.
func probeSockCopy() (func(int), func()) {
	k := kernel.New(vclock.NewVirtual())
	a, b := k.SocketPair()
	src, dst := make([]byte, 16<<10), make([]byte, 16<<10)
	return func(n int) {
		for i := 0; i < n; i++ {
			if w, err := k.Write(a, src); err != nil || w != len(src) {
				panic(fmt.Sprintf("sock_copy: wrote %d: %v", w, err))
			}
			for got := 0; got < len(dst); {
				r, err := k.Read(b, dst[got:])
				if err != nil {
					panic(fmt.Sprintf("sock_copy: read: %v", err))
				}
				got += r
			}
		}
	}, func() {}
}

// probeConnCycle: Connect + Accept + both Closes on a listening socket.
func probeConnCycle() (func(int), func()) {
	k := kernel.New(vclock.NewVirtual())
	lfd, err := k.Listen("probe:80", 128)
	if err != nil {
		panic(err)
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			c, err := k.Connect("probe:80")
			if err != nil {
				panic(err)
			}
			s, err := k.Accept(lfd)
			if err != nil {
				panic(err)
			}
			_ = k.Close(c) // cannot fail on a descriptor just returned
			_ = k.Close(s)
		}
	}, func() {}
}

// probeAIORead: FS.AIORead of a 16 KB pattern-backed file — the disk
// request, its completion event, and the content generation.
func probeAIORead() (func(int), func()) {
	clk := vclock.NewVirtual()
	fs := kernel.NewFS(disk.New(clk, disk.BenchGeometry()))
	f, err := fs.Create("probe", 16<<10, false)
	if err != nil {
		panic(err)
	}
	p := make([]byte, 16<<10)
	return func(n int) {
		done := 0
		for i := 0; i < n; i++ {
			clk.Enter()
			fs.AIORead(f, 0, p, func(int, error) { done++ })
			clk.Exit() // the last hold: time advances and the completion fires
		}
		if done != n {
			panic(fmt.Sprintf("aio_read: %d of %d completed", done, n))
		}
	}, func() {}
}

// probeTimer: After plus the fire, on a clock already holding 1024
// far-off timers so the heap has depth.
func probeTimer() (func(int), func()) {
	clk := vclock.NewVirtual()
	clk.Enter()
	for i := 0; i < 1024; i++ {
		clk.After(time.Duration(1000+i)*time.Hour, func() {})
	}
	clk.Exit() // nothing is due for 1000 hours; advancing fires nothing near
	return func(n int) {
		fired := 0
		for i := 0; i < n; i++ {
			clk.Enter()
			clk.After(time.Microsecond, func() { fired++ })
			clk.Exit()
		}
		if fired != n {
			panic(fmt.Sprintf("timer: %d of %d fired", fired, n))
		}
	}, func() {}
}

// probeWheelRearm: stop and re-arm one timer on a wheel holding 64k
// others — the per-ACK RTO maintenance (bench.BenchTimerWheelRearm).
func probeWheelRearm() (func(int), func()) {
	clk := vclock.NewVirtual()
	clk.Enter() // Schedule and Stop require the clock held; time stays frozen
	w := timerwheel.New(clk)
	nop := func() {}
	for i := 0; i < 64<<10; i++ {
		w.Schedule(vclock.Duration(10+i%4096)*time.Millisecond, nop)
	}
	rto := 200 * time.Millisecond
	t := w.Schedule(rto, nop)
	return func(n int) {
		for i := 0; i < n; i++ {
			t.Stop()
			t = w.Schedule(rto+vclock.Duration(i%64)*time.Millisecond, nop)
		}
	}, clk.Exit
}

// probeDiskRequest: Submit through completion with 64 requests queued,
// so the elevator's sorted insert and selection have a queue to work on.
func probeDiskRequest() (func(int), func()) {
	clk := vclock.NewVirtual()
	d := disk.New(clk, disk.BenchGeometry())
	blocks := uint64(d.Geometry().Blocks - 4)
	rng := uint64(0x9E3779B97F4A7C15)
	return func(n int) {
		done := 0
		for i := 0; i < n; i += 64 {
			clk.Enter()
			for j := 0; j < 64; j++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				if err := d.Submit(&disk.Request{Block: int64(rng % blocks), Count: 4, Done: func() { done++ }}); err != nil {
					panic(err)
				}
			}
			clk.Exit()
		}
		if done < n {
			panic(fmt.Sprintf("disk: %d of %d completed", done, n))
		}
	}, func() {}
}

// probePacket: a 1460-byte datagram from Send to the peer's handler.
func probePacket() (func(int), func()) {
	clk := vclock.NewVirtual()
	net := netsim.New(clk, 1)
	a, err := net.Host("a", netsim.Ethernet100())
	if err != nil {
		panic(err)
	}
	b, err := net.Host("b", netsim.Ethernet100())
	if err != nil {
		panic(err)
	}
	got := 0
	b.SetHandler(func(string, []byte) { got++ })
	payload := make([]byte, 1460)
	return func(n int) {
		got = 0
		for i := 0; i < n; i += 64 {
			clk.Enter()
			for j := 0; j < 64; j++ {
				a.Send("b", payload)
			}
			clk.Exit()
		}
		if got < n {
			panic(fmt.Sprintf("netsim: %d of %d delivered", got, n))
		}
	}, func() {}
}

var probeSink uint32

// probeSegment: one full-size segment through the wire boundary as the
// stack does it — EncodeTo a pooled buffer, Decode and verify in place.
func probeSegment() (func(int), func()) {
	payload := make([]byte, 1460)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	v := iovec.FromBytes(payload)
	return func(n int) {
		for i := 0; i < n; i++ {
			seg := &tcp.Segment{
				SrcPort: 4242, DstPort: 80, Seq: uint32(i), Ack: uint32(i) + 1,
				Flags: tcp.FlagACK, Window: 1 << 16, Payload: v,
			}
			wire := bufpool.Get(seg.WireLen())
			seg.EncodeTo(wire)
			d, err := tcp.Decode(wire)
			if err != nil {
				panic(err)
			}
			probeSink += d.Seq + uint32(d.Payload.Len())
			bufpool.Put(wire)
		}
	}, func() {}
}

// probeTCPBulk: a whole 1 MB transfer between two stacks over a lossless
// Ethernet — handshake, segmentation, ACK clocking, timers, teardown.
func probeTCPBulk() (func(int), func()) {
	return func(n int) {
		for i := 0; i < n; i++ {
			if _, err := tracecheck.Run(tracecheck.Scenario{Cfg: tcp.Config{SACK: true}, Seed: 1, SendBytes: 1 << 20}); err != nil {
				panic(err)
			}
		}
	}, func() {}
}

const probeRequest = "GET /file-123 HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\r\n"

func probeParse() (func(int), func()) {
	var req httpd.Request
	return func(n int) {
		for i := 0; i < n; i++ {
			if err := httpd.ParseRequestInto(&req, probeRequest); err != nil {
				panic(err)
			}
		}
	}, func() {}
}

func probeHeadRender() (func(int), func()) {
	return func(n int) {
		for i := 0; i < n; i++ {
			probeSink += uint32(len(httpd.ResponseHead(200, 16<<10, true)))
		}
	}, func() {}
}

func cacheNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = loadgen.FileName(i)
	}
	return names
}

// probeCacheGet: a hit among 256 entries, with its LRU touch.
func probeCacheGet() (func(int), func()) {
	c := httpd.NewCache(100 << 20)
	names := cacheNames(256)
	data := make([]byte, 16<<10)
	for _, name := range names {
		c.Put(name, data)
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			if _, ok := c.Get(names[i&255]); !ok {
				panic("cache_get: miss")
			}
		}
	}, func() {}
}

// probeCachePutEvict: a Put of a new key into a full cache, evicting the
// least recently used entry.
func probeCachePutEvict() (func(int), func()) {
	c := httpd.NewCache(64 * 16 << 10)
	names := cacheNames(4096)
	data := make([]byte, 16<<10)
	next := 0
	return func(n int) {
		for i := 0; i < n; i++ {
			c.Put(names[next&4095], data)
			next++
		}
	}, func() {}
}

// scriptedTransport replays one request head n times and discards what
// the server writes: the serve path with no socket under it
// (bench.BenchServeCached).
type scriptedTransport struct {
	n     int
	wrote int
}

func (s *scriptedTransport) Read(p []byte) core.M[int] {
	return core.NBIO(func() int {
		if s.n == 0 {
			return 0
		}
		s.n--
		return copy(p, probeRequest)
	})
}

func (s *scriptedTransport) Write(p []byte) core.M[int] {
	return core.NBIO(func() int { s.wrote += len(p); return len(p) })
}

func (s *scriptedTransport) WriteCell(cell *[]byte) core.M[int] {
	return core.NBIO(func() int { s.wrote += len(*cell); return len(*cell) })
}

func (s *scriptedTransport) Close() core.M[core.Unit] { return core.Skip }

// probeServeCached: one cached keep-alive GET through ServeTransport —
// read, head parse, cache lookup, head render, two cell writes.
func probeServeCached() (func(int), func()) {
	f := newFixture()
	srv := httpd.NewServer(f.io, httpd.ServerConfig{CacheBytes: 1 << 20})
	srv.Cache().Put("file-123", make([]byte, 16<<10))
	return func(n int) {
		t := &scriptedTransport{n: n}
		f.wait(srv.ServeTransport(t))
		if t.wrote < n*(16<<10) {
			panic(fmt.Sprintf("serve_cached: %d bytes for %d requests", t.wrote, n))
		}
	}, f.stop
}

// probePump: internal/loadgen against a stub thread that answers every
// request with one canned 16 KB response — the load generator by itself
// (plus the socket it must read from), so its share of a workload is
// subtracted rather than guessed. No modelled-link sleep: hio.sleep_ns
// has that.
func probePump() (func(int), func()) {
	f := newFixture()
	canned := append(httpd.ResponseHead(200, 16<<10, true), make([]byte, 16<<10)...)
	stub := func(fd kernel.FD) core.M[core.Unit] {
		buf := make([]byte, 4096)
		return core.Then(
			core.Loop(core.Bind(f.io.SockRead(fd, buf), func(n int) core.M[bool] {
				if n == 0 {
					return core.Return(false)
				}
				// A closed-loop client has one request in flight, and it
				// fits one read.
				return core.Map(f.io.SockSend(fd, canned), func(int) bool { return true })
			})),
			f.io.CloseFD(fd),
		)
	}
	lfd, err := f.k.Listen("stub:80", 16)
	if err != nil {
		panic(err)
	}
	f.rt.Spawn(core.Forever(core.Bind(f.io.SockAccept(lfd), func(fd kernel.FD) core.M[core.Unit] {
		return core.Fork(stub(fd))
	})))
	return func(n int) {
		gen := loadgen.New(f.io, loadgen.Config{
			Addr: "stub:80", Clients: 1, Files: 256, RequestsPerClient: n, Seed: 1, MeasureLatency: true,
		})
		f.wait(gen.Run())
		if got := gen.Requests.Load(); got != uint64(n) || gen.Errors.Load() != 0 {
			panic(fmt.Sprintf("pump: %d of %d requests, %d errors", got, n, gen.Errors.Load()))
		}
	}, f.stop
}

func probeBufpool() (func(int), func()) {
	return func(n int) {
		for i := 0; i < n; i++ {
			bufpool.Put(bufpool.Get(4096))
		}
	}, func() {}
}
