package bench

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"hybrid/internal/core"
	"hybrid/internal/disk"
	"hybrid/internal/faults"
	"hybrid/internal/hio"
	"hybrid/internal/httpd"
	"hybrid/internal/kernel"
	"hybrid/internal/loadgen"
	"hybrid/internal/netsim"
	"hybrid/internal/stats"
	"hybrid/internal/tcp"
	"hybrid/internal/vclock"
)

// This file is the one web testbed: every figure harness, cmd/webserver
// and examples/webserver build, drive and tear down their system through
// it, so the construction order the figures' bytes depend on is written
// once, and so is what each of them used to re-implement: warming the
// cache, timing a workload from inside it, parking a fleet, merging the
// registries, checking quiescence.

// Spec describes a testbed in terms every caller already had.
type Spec struct {
	// Files pattern-backed files of FileBytes each, named
	// loadgen.FileName(i), are created on the disk.
	Files     int
	FileBytes int64
	// Server configures the hybrid server (NewSite only).
	Server httpd.ServerConfig
	// Faults, when active, attaches one deterministic injector to the
	// kernel and the disk (with TCP, also to the wire and the server's
	// stack). Nil or inactive is byte-for-byte the fault-free run.
	Faults *faults.Config
	// TCP serves over the application-level TCP stack on a simulated
	// Ethernet instead of kernel sockets (cmd/webserver -tcp).
	TCP bool
	// Frozen holds virtual time from construction to Close except inside
	// Run, so a parked fleet's armed deadlines are pinned clock events
	// while its heap is measured (Figure 22, ConnMemTest), and a baseline
	// started before Run takes its first turn only once Run has queued
	// the load (Fig19Apache).
	Frozen bool
}

// Substrate is what every virtual-time harness stands on, server or not.
type Substrate struct {
	Clk    *vclock.VirtualClock
	K      *kernel.Kernel
	FS     *kernel.FS
	RT     *core.Runtime
	IO     *hio.IO
	Faults *faults.Injector // nil without an active plan

	frozen bool
}

// NewSubstrate builds the substrate in the one order the figures depend
// on. Only a bug can make harness set-up fail, so it panics.
func NewSubstrate(spec Spec) *Substrate { return newSubstrate(spec, disk.CLOOK, false) }

// newSubstrate also takes what only Figure 17 varies: the disk's policy
// (its FCFS ablation) and panics trapped for core.Supervise.
func newSubstrate(spec Spec, sched disk.Scheduler, trapPanics bool) *Substrate {
	b := &Substrate{Clk: vclock.NewVirtual(), frozen: spec.Frozen}
	if b.frozen {
		b.Clk.Enter()
	}
	b.K = kernel.New(b.Clk)
	b.FS = kernel.NewFS(disk.NewWithScheduler(b.Clk, disk.BenchGeometry(), sched))
	if err := loadgen.MakeFileset(b.FS, spec.Files, spec.FileBytes); err != nil {
		panic(err)
	}
	b.RT = core.NewRuntime(core.Options{Clock: b.Clk, TrapPanics: trapPanics})
	b.IO = hio.New(b.RT, b.K, b.FS)
	if spec.Faults.Active() {
		b.Faults = faults.New(*spec.Faults, b.Clk)
		b.K.SetFaults(b.Faults)
		b.FS.Disk().SetFaults(b.Faults)
	}
	return b
}

// Run executes m as one monadic thread and returns the virtual time it
// took. The end is stamped inside the workload: once its last thread
// parks, the idle clock races through every pending timer before the
// host could look. A frozen substrate releases the clock for exactly the
// run, re-taking the hold inside the worker at the instant m finishes.
func (b *Substrate) Run(m core.M[core.Unit]) time.Duration {
	start := b.Clk.Now()
	var end vclock.Time
	done := make(chan struct{})
	b.RT.Spawn(core.Then(m, core.Do(func() {
		end = b.Clk.Now()
		if b.frozen {
			b.Clk.Enter()
		}
		close(done)
	})))
	if b.frozen {
		b.Clk.Exit()
	}
	<-done
	return time.Duration(end - start)
}

// Snapshot merges the substrate's registries under the standard prefixes.
func (b *Substrate) Snapshot() stats.Snapshot {
	snap := stats.Snapshot{}
	snap.Merge("sched", b.RT.Stats().Snapshot())
	snap.Merge("kernel", b.K.Metrics().Snapshot())
	snap.Merge("disk", b.FS.Disk().Metrics().Snapshot())
	if b.Faults != nil {
		snap.Merge("faults", b.Faults.Metrics().Snapshot())
	}
	return snap
}

// Close stops the runtime (under the held clock, if frozen, so parked
// deadlines never fire).
func (b *Substrate) Close() {
	b.RT.Shutdown()
	if b.frozen {
		b.Clk.Exit()
	}
}

// Site is a substrate with the hybrid server on it, bound and accepting.
type Site struct {
	*Substrate
	Srv *httpd.Server

	spec           Spec
	stackS, stackC *tcp.Stack // TCP only
	rest           Quiescence
	leaked         bool              // Drain has already reported
	fleet          []func(core.Unit) // retained resume hooks pin the parked fleet
}

// Addr is where every site's server listens (kernel sockets).
const Addr = "web:80"

// NewSite builds substrate and server and binds before it spawns, so a
// client that runs ahead of the accept loop queues instead of being refused.
func NewSite(spec Spec) *Site {
	s := &Site{Substrate: NewSubstrate(spec), spec: spec}
	s.Srv = httpd.NewServer(s.IO, spec.Server)
	listeners := 1
	if spec.TCP {
		listeners = 0
		s.RT.Spawn(s.Srv.ServeTCP(s.listenTCP()))
	} else {
		serve, err := s.Srv.BindAndServe(Addr)
		if err != nil {
			panic(err)
		}
		s.RT.Spawn(serve)
	}
	s.rest = MarkQuiescence(s.RT, s.K, s.Srv)
	s.rest.Threads, s.rest.FDs = 1, listeners
	if spec.TCP {
		s.rest.Stacks = []*tcp.Stack{s.stackS, s.stackC}
	}
	return s
}

// listenTCP is the -tcp leg: two hosts on a simulated 100 Mbps Ethernet,
// a stack on each, the server's listening on port 80.
func (s *Site) listenTCP() *tcp.Listener {
	net := netsim.New(s.Clk, 1)
	net.SetFaults(s.Faults)
	host := func(name string) *netsim.Host {
		h, err := net.Host(name, netsim.Ethernet100())
		if err != nil {
			panic(err)
		}
		return h
	}
	s.stackS = tcp.NewStack(host("server"), tcp.Config{Faults: s.Faults})
	s.stackC = tcp.NewStack(host("client"), tcp.Config{})
	l, err := s.stackS.Listen(80)
	if err != nil {
		panic(err)
	}
	return l
}

// Dial opens a client connection over the site's transport.
func (s *Site) Dial() core.M[httpd.Transport] {
	if s.spec.TCP {
		return core.Map(s.stackC.ConnectM("server", 80), func(c *tcp.Conn) httpd.Transport {
			return httpd.TCPTransport{Conn: c}
		})
	}
	return core.Map(s.IO.SockConnect(Addr), func(fd kernel.FD) httpd.Transport {
		return httpd.SockTransport{IO: s.IO, FD: fd}
	})
}

// Warm fills the server's cache with the whole fileset: no cold-start
// disk read in a harness that measures connection state or slot contention.
func (s *Site) Warm() {
	for i := 0; i < s.spec.Files; i++ {
		name := loadgen.FileName(i)
		data := make([]byte, s.spec.FileBytes)
		kernel.FillPattern(data, name, 0)
		s.Srv.Cache().Put(name, data)
	}
}

// Park establishes a fleet of n connections that stay: from one root
// thread (forking inside the worker keeps every (when, seq) assignment
// deterministic at any GOMAXPROCS) client i dials, runs drive, and parks
// in a Suspend whose retained resume hook pins its half. Close then
// expects the fleet, not an empty server.
func (s *Site) Park(n int, drive func(i int, t httpd.Transport) core.M[core.Unit]) {
	var mu sync.Mutex
	s.fleet = make([]func(core.Unit), 0, n)
	park := core.Suspend(func(resume func(core.Unit)) {
		mu.Lock()
		s.fleet = append(s.fleet, resume)
		mu.Unlock()
	})
	s.RT.Spawn(core.ForN(n, func(i int) core.M[core.Unit] {
		return core.Fork(core.Bind(s.Dial(), func(t httpd.Transport) core.M[core.Unit] {
			return core.Then(drive(i, t), park)
		}))
	}))
	s.rest.Threads += 2 * int64(n)
	s.rest.FDs += 2 * n
	s.rest.Conns += int64(n)
	// Time is frozen, so the fleet is established when the worker drains:
	// every client parked and every server half forked and off the ready
	// queue (a client that only sends parks long before the accept loop
	// reaches its connection). Poll, then let the last dispatch settle.
	for parked := 0; parked < n || s.RT.Live() != s.rest.Threads || s.RT.QueueDepth() > 0; {
		time.Sleep(10 * time.Millisecond)
		if errs := s.RT.UncaughtErrors(); len(errs) > 0 {
			panic(fmt.Sprintf("bench: fleet client failed: %v", errs))
		}
		mu.Lock()
		parked = len(s.fleet)
		mu.Unlock()
	}
	time.Sleep(50 * time.Millisecond)
}

// Snapshot adds httpd and, where the site has them, admission, breaker and
// tcp. Drain first: a workload signals completion from inside a trace, so
// when Run returns its last threads are still retiring.
func (s *Site) Snapshot() stats.Snapshot {
	snap := s.Substrate.Snapshot()
	snap.Merge("httpd", s.Srv.Metrics().Snapshot())
	if lim := s.Srv.Limiter(); lim != nil {
		snap.Merge("admission", lim.Metrics().Snapshot())
	}
	if b := s.Srv.Breaker(); b != nil {
		snap.Merge("breaker", b.Metrics().Snapshot())
	}
	if s.stackS != nil {
		snap.Merge("tcp", s.stackS.Metrics().Snapshot())
	}
	return snap
}

// Drain brings the site to rest before its counters are read; a leak is a
// bug, here or in the system under test, so it panics — once: the deferred
// Close that the panic unwinds through neither waits nor reports again.
func (s *Site) Drain() {
	if s.leaked {
		return
	}
	if err := s.rest.Check(); err != nil {
		s.leaked = true
		panic(fmt.Sprintf("bench: site %v", err))
	}
}

// Close is the teardown every harness ends with: drain, then stop.
func (s *Site) Close() {
	s.Drain()
	s.Substrate.Close()
}

// errNoLength fails a response whose head carries no usable
// Content-Length: Get frames a body by that header alone.
var errNoLength = errors.New("bench: malformed response: no usable Content-Length")

// Get sends one rendered request over t and drains the response exactly —
// head parse, Content-Length, full body through buf — and yields the body
// length. A connection that parks afterwards leaves nothing in its receive
// ring (a stranded tail would charge it a 4 KB segment it never reads).
func Get(t httpd.Transport, req, buf []byte) core.M[int64] {
	hb := &httpd.HeadBuffer{}
	var body func(remaining int64) core.M[core.Unit]
	body = func(remaining int64) core.M[core.Unit] {
		if remaining <= 0 {
			return core.Skip
		}
		return core.Bind(t.Read(buf[:min(int64(len(buf)), remaining)]), func(n int) core.M[core.Unit] {
			if n == 0 {
				return core.Throw[core.Unit](fmt.Errorf("bench: truncated body"))
			}
			return body(remaining - int64(n))
		})
	}
	var head func() core.M[int64]
	head = func() core.M[int64] {
		return core.Bind(t.Read(buf), func(n int) core.M[int64] {
			if n == 0 {
				return core.Throw[int64](fmt.Errorf("bench: connection closed mid-response"))
			}
			return core.Bind(
				core.NBIOe(func() (string, error) { return hb.Feed(buf[:n]) }),
				func(h string) core.M[int64] {
					if h == "" {
						return head()
					}
					_, length, err := httpd.ParseResponseHead(h)
					if err != nil {
						return core.Throw[int64](err)
					}
					if length < 0 {
						return core.Throw[int64](errNoLength)
					}
					// Part of the body may already be buffered past the head.
					return core.Then(body(length-int64(hb.Buffered())), core.Return(length))
				},
			)
		})
	}
	return core.Then(t.Write(req), head())
}
