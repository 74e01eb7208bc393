package main

import (
	"fmt"
	"sync"
	"time"

	"hybrid/internal/core"
	"hybrid/internal/disk"
	"hybrid/internal/hio"
	"hybrid/internal/httpd"
	"hybrid/internal/kernel"
	"hybrid/internal/loadgen"
	"hybrid/internal/netsim"
	"hybrid/internal/stats"
	"hybrid/internal/tcp"
	"hybrid/internal/vclock"
)

// The modelled client-server link of every loadgen workload: the paper's
// 100 Mbps Ethernet with a 300 µs round trip (bench.DefaultFig19).
const (
	linkRTT       = 300 * time.Microsecond
	linkBandwidth = 100_000_000 / 8
	// sessionTimeout bounds one churn session (loadgen's default).
	sessionTimeout = 250 * time.Millisecond
)

// bed is the system under test inside one child process: the whole stack
// a workload drives, built from the packages' exported constructors only.
//
// The host goroutine holds the virtual clock (Enter) from construction
// on and releases it only inside run, so between phases time stands
// still: herd deadlines stay pinned wheel state, TIME_WAIT timers do not
// race ahead, and every snapshot is taken on a quiescent system.
type bed struct {
	clk *vclock.VirtualClock
	k   *kernel.Kernel
	fs  *kernel.FS
	rt  *core.Runtime
	io  *hio.IO
	srv *httpd.Server

	// web-tcp-loss only.
	net            *netsim.Network
	stackS, stackC *tcp.Stack

	spec      spec
	contents  [][]byte          // expected bytes of the prefilled files, by index
	herdHooks []func(core.Unit) // retained resume hooks pin the parked herd
	runErr    error             // first exception that escaped a run
}

// newBed builds the substrate (clock, kernel, disk, fileset, runtime) and
// the server, bound and accepting.
func newBed(sp spec, seed uint64, sp0 *spans) (*bed, error) {
	b := &bed{spec: sp}
	b.clk = vclock.NewVirtual()
	b.clk.Enter()

	end := sp0.begin("setup.fileset")
	b.k = kernel.New(b.clk)
	b.fs = kernel.NewFS(disk.New(b.clk, disk.BenchGeometry()))
	if err := loadgen.MakeFileset(b.fs, sp.files, sp.fileBytes); err != nil {
		return nil, err
	}
	end()

	end = sp0.begin("setup.server")
	b.rt = core.NewRuntime(core.Options{Workers: 1, Clock: b.clk})
	b.io = hio.New(b.rt, b.k, b.fs)
	cfg := httpd.ServerConfig{CacheBytes: sp.cacheBytes, ChunkBytes: int(sp.fileBytes)}
	if sp.herd > 0 {
		// As bench.Fig22Run: the backlog must hold the whole herd (with
		// time frozen a refused connect cannot back off), and every
		// parked connection carries an armed idle deadline.
		cfg.Overload = &httpd.OverloadConfig{Backlog: sp.herd + sp.clients + 64}
		cfg.Lifecycle = &httpd.LifecycleConfig{
			IdleTimeout:       time.Hour,
			HeaderTimeout:     time.Hour,
			WriteStallTimeout: time.Hour,
		}
	}
	b.srv = httpd.NewServer(b.io, cfg)
	if sp.tcp {
		b.net = netsim.New(b.clk, int64(seed))
		// The server's egress queue is deepened to hold every client's
		// response at once, so the only loss is the seeded draw. At the
		// default 256 KB the 64 simultaneous responses overflow it, the
		// stack recovers such a burst one segment per backed-off RTO, and
		// one connection's 220–340 s stall sets the whole run's virtual
		// time — differently for every seed (see README, "Findings").
		serverLink := netsim.Ethernet100()
		serverLink.QueueLimit = 4 << 20
		hs, err := b.net.Host("server", serverLink)
		if err != nil {
			return nil, err
		}
		hc, err := b.net.Host("client", netsim.Ethernet100())
		if err != nil {
			return nil, err
		}
		b.net.SetPath("server", "client", netsim.PathSpec{LossProb: sp.lossS2C})
		b.stackS = tcp.NewStack(hs, tcp.Config{SACK: true})
		b.stackC = tcp.NewStack(hc, tcp.Config{SACK: true})
		l, err := b.stackS.Listen(80)
		if err != nil {
			return nil, err
		}
		b.rt.Spawn(b.srv.ServeTCP(l))
	} else {
		serve, err := b.srv.BindAndServe("web:80")
		if err != nil {
			return nil, err
		}
		b.rt.Spawn(serve)
	}
	end()

	if sp.prefill {
		end = sp0.begin("setup.prefill")
		b.contents = make([][]byte, sp.files)
		for i := range b.contents {
			name := loadgen.FileName(i)
			b.contents[i] = pattern(name, sp.fileBytes)
			b.srv.Cache().Put(name, b.contents[i])
		}
		end()
	}
	return b, nil
}

// pattern renders a pattern-backed file's contents.
func pattern(name string, size int64) []byte {
	data := make([]byte, size)
	for j := range data {
		data[j] = kernel.PatternByte(name, int64(j))
	}
	return data
}

// close stops the runtime under the frozen clock.
func (b *bed) close() {
	b.rt.Shutdown()
	b.io.Close()
}

// run executes m as one monadic thread with the clock released and
// returns the virtual time it took. The completion effect reads the clock
// and re-takes the host's hold from inside the worker — at the virtual
// instant m finishes, before the idle clock could race through pending
// timers.
func (b *bed) run(m core.M[core.Unit]) time.Duration {
	start := b.clk.Now()
	var end vclock.Time
	done := make(chan struct{})
	guarded := core.Catch(m, func(err error) core.M[core.Unit] {
		if b.runErr == nil {
			b.runErr = err
		}
		return core.Skip
	})
	b.rt.Spawn(core.Then(guarded, core.Do(func() {
		end = b.clk.Now()
		b.clk.Enter()
		close(done)
	})))
	b.clk.Exit()
	<-done
	return time.Duration(end - start)
}

// load is what one closed-loop traffic phase delivered.
type load struct {
	requests, errors, ok2xx, bytes uint64
	virt                           time.Duration
	latMeanUs, latP99Us, latMaxUs  float64
}

// loadgen drives internal/loadgen's generator for a fixed per-client
// budget, or — horizon > 0 — one-request sessions until the horizon.
func (b *bed) loadgen(seed uint64, perClient int, horizon time.Duration) load {
	cfg := loadgen.Config{
		Addr:              "web:80",
		Clients:           b.spec.clients,
		Files:             b.spec.files,
		RequestsPerClient: perClient,
		Seed:              seed,
		RTT:               linkRTT,
		Bandwidth:         linkBandwidth,
		MeasureLatency:    true,
	}
	if horizon > 0 {
		cfg.Horizon = horizon
		cfg.SessionRequests = 1
		cfg.SessionTimeout = sessionTimeout
	}
	gen := loadgen.New(b.io, cfg)
	virt := b.run(gen.Run())
	l := load{
		requests: gen.Requests.Load(),
		errors:   gen.Errors.Load(),
		ok2xx:    gen.Statuses[2].Load(),
		bytes:    gen.Bytes.Load(),
		virt:     virt,
	}
	l.latency(gen.Latency())
	return l
}

// tcpLoad drives the benchmark's own combinator client over the
// application-level TCP stack: clients keep-alive connections, perClient
// verified GETs each.
func (b *bed) tcpLoad(seed uint64, perClient int) load {
	// One worker: every effect below runs on the same goroutine, and the
	// host reads l only after run has returned.
	var l load
	lat := newLatency()
	wg := core.NewWaitGroup(b.spec.clients)
	client := func(id int) core.M[core.Unit] {
		rng := seed ^ (uint64(id)+1)*0x9E3779B97F4A7C15
		body := core.Bind(b.dial(), func(t httpd.Transport) core.M[core.Unit] {
			f := newFetcher(t)
			return core.Finally(
				core.ForN(perClient, func(int) core.M[core.Unit] {
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					i := int(rng % uint64(b.spec.files))
					var start vclock.Time
					return core.Seq(
						core.Do(func() { start = b.clk.Now() }),
						f.get(loadgen.FileName(i), b.contents[i]),
						core.Do(func() {
							l.requests++
							l.ok2xx++
							l.bytes += uint64(len(b.contents[i]))
							lat.Observe(int64(time.Duration(b.clk.Now()-start) / time.Microsecond))
						}),
					)
				}),
				t.Close(),
			)
		})
		return core.Finally(
			core.Catch(body, func(err error) core.M[core.Unit] {
				l.errors++
				if b.runErr == nil {
					b.runErr = err
				}
				return core.Skip
			}),
			wg.Done(),
		)
	}
	l.virt = b.run(core.Then(
		core.ForN(b.spec.clients, func(i int) core.M[core.Unit] { return core.Fork(client(i)) }),
		wg.Wait(),
	))
	l.latency(lat)
	return l
}

// latency copies a latency histogram's summary into l.
func (l *load) latency(h *stats.Histogram) {
	l.latP99Us = float64(h.Quantile(0.99))
	l.latMaxUs = float64(h.Max())
	if n := h.Count(); n > 0 {
		l.latMeanUs = float64(h.Sum()) / float64(n)
	}
}

// parkHerd establishes the parked keep-alive herd exactly as
// bench.Fig22Run does: under the frozen clock, from one root thread,
// each client issues one fully drained (and here, verified) GET and
// parks in a Suspend whose retained resume hook pins its half.
func (b *bed) parkHerd() error {
	n := b.spec.herd
	var mu sync.Mutex
	b.herdHooks = make([]func(core.Unit), 0, n)
	park := core.Suspend(func(resume func(core.Unit)) {
		mu.Lock()
		b.herdHooks = append(b.herdHooks, resume)
		mu.Unlock()
	})
	client := func(i int) core.M[core.Unit] {
		i %= b.spec.files
		return core.Bind(b.dial(), func(t httpd.Transport) core.M[core.Unit] {
			return core.Then(newFetcher(t).get(loadgen.FileName(i), b.contents[i]), park)
		})
	}
	b.rt.Spawn(core.ForN(n, func(i int) core.M[core.Unit] { return core.Fork(client(i)) }))
	// Time is frozen, so the herd is parked when the worker drains: poll
	// the hook count from the host.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		time.Sleep(2 * time.Millisecond)
		mu.Lock()
		got := len(b.herdHooks)
		mu.Unlock()
		if got >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("herd: %d of %d connections parked (uncaught: %v)", got, n, b.rt.UncaughtErrors())
		}
	}
}

// dial opens a client connection over the workload's transport.
func (b *bed) dial() core.M[httpd.Transport] {
	if b.spec.tcp {
		return core.Map(b.stackC.ConnectM("server", 80), func(c *tcp.Conn) httpd.Transport {
			return httpd.TCPTransport{Conn: c}
		})
	}
	return core.Map(b.io.SockConnect("web:80"), func(fd kernel.FD) httpd.Transport {
		return httpd.SockTransport{IO: b.io, FD: fd}
	})
}

// check fetches one file over the workload's transport from a fresh
// connection and compares every byte with kernel.PatternByte.
func (b *bed) check(name string) error {
	want := pattern(name, b.spec.fileBytes)
	b.run(core.Bind(b.dial(), func(t httpd.Transport) core.M[core.Unit] {
		return core.Finally(newFetcher(t).get(name, want), t.Close())
	}))
	if b.runErr != nil {
		return fmt.Errorf("preflight %s: %w", name, b.runErr)
	}
	return nil
}

// uncached names a file the server's cache does not hold.
func (b *bed) uncached() (string, error) {
	for i := 0; i < b.spec.files; i++ {
		name := loadgen.FileName(i)
		if _, ok := b.srv.Cache().Get(name); !ok {
			return name, nil
		}
	}
	return "", fmt.Errorf("preflight: every file is cached")
}

// drain lets the connections of a finished phase close. Kernel sockets
// close under the frozen clock (immediate-mode epoll needs no time); TCP
// needs the FIN exchange and TIME_WAIT to play out, so the clock is
// released until both stacks are empty.
func (b *bed) drain() error {
	if b.spec.tcp {
		b.clk.Exit()
		defer b.clk.Enter()
		deadline := time.Now().Add(30 * time.Second)
		for b.stackS.Metrics().Snapshot().Counter("conns")+b.stackC.Metrics().Snapshot().Counter("conns") > 0 {
			if time.Now().After(deadline) {
				return fmt.Errorf("drain: tcp connections still open")
			}
			time.Sleep(time.Millisecond)
		}
	}
	if b.spec.horizon > 0 {
		// Every session raced a timeout thread that is still asleep;
		// let them all expire. The herd's deadlines are an hour away.
		b.run(b.io.Sleep(sessionTimeout + time.Millisecond))
	}
	// The accept loop stays; so do both halves of every herd connection.
	live := make(chan struct{})
	go func() {
		b.rt.WaitLive(int64(1 + 2*b.spec.herd))
		close(live)
	}()
	select {
	case <-live:
		return nil
	case <-time.After(30 * time.Second):
		return fmt.Errorf("drain: %d threads still live, want %d", b.rt.Live(), 1+2*b.spec.herd)
	}
}
