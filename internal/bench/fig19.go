package bench

import (
	"math"
	"time"

	"hybrid/internal/core"
	"hybrid/internal/disk"
	"hybrid/internal/faults"
	"hybrid/internal/hio"
	"hybrid/internal/httpd"
	"hybrid/internal/kernel"
	"hybrid/internal/loadgen"
	"hybrid/internal/nptl"
	"hybrid/internal/stats"
	"hybrid/internal/vclock"
)

// Fig19Config parameterizes the web-server comparison: "each client
// thread repeatedly requests a file chosen at random from among 128K
// possible files available on the server; each file is 16KB in size …
// Our web server used a fixed cache size of 100MB," over a 100 Mbps
// link, with the Linux disk cache flushed before each run.
type Fig19Config struct {
	// Files in the set. Paper: 128 K.
	Files int
	// FileBytes each. Paper: 16 KB.
	FileBytes int64
	// CacheBytes for both servers. Paper: 100 MB.
	CacheBytes int64
	// TotalRequests per run (split across connections).
	TotalRequests int
	// RTT and Bandwidth model the client-server Ethernet.
	RTT       time.Duration
	Bandwidth int64
	// Seed for client request streams.
	Seed uint64
	// Cached, when true, shrinks the working set to fit the cache — the
	// paper's "mostly-cached workloads (not shown in the figure)".
	Cached bool
	// Faults, when active, attaches a deterministic fault injector to
	// the hybrid run's kernel and disk and enables the server's
	// graceful-degradation path (bounded retries, 503 on a dead file).
	// The Apache baseline always runs fault-free.
	Faults *faults.Config
}

// DefaultFig19 is the paper's configuration.
func DefaultFig19() Fig19Config {
	return Fig19Config{
		Files:         128 * 1024,
		FileBytes:     16 * 1024,
		CacheBytes:    100 << 20,
		TotalRequests: 8192,
		RTT:           300 * time.Microsecond,
		Bandwidth:     100_000_000 / 8,
		Seed:          7,
	}
}

// Fig19Quick is reduced for tests.
func Fig19Quick() Fig19Config {
	c := DefaultFig19()
	c.Files = 2048
	c.CacheBytes = 2 << 20
	c.TotalRequests = 512
	return c
}

// effectiveFiles applies the Cached switch: a working set that fits the
// cache.
func (c Fig19Config) effectiveFiles() int {
	if !c.Cached {
		return c.Files
	}
	fit := int(c.CacheBytes / c.FileBytes / 2)
	if fit < 1 {
		fit = 1
	}
	if fit > c.Files {
		fit = c.Files
	}
	return fit
}

// fig19Site builds the shared substrate: kernel, fileset, client runtime.
func fig19Site(cfg Fig19Config) (*vclock.VirtualClock, *kernel.Kernel, *kernel.FS, *core.Runtime, *hio.IO) {
	clk := vclock.NewVirtual()
	k := kernel.New(clk)
	fs := kernel.NewFS(disk.New(clk, disk.BenchGeometry()))
	if err := loadgen.MakeFileset(fs, cfg.Files, cfg.FileBytes); err != nil {
		panic(err)
	}
	// One worker: the deterministic configuration every figure uses.
	rt := core.NewRuntime(core.Options{Workers: 1, Clock: clk})
	io := hio.New(rt, k, fs)
	return clk, k, fs, rt, io
}

// runLoad drives the generator to completion and returns MB/s of virtual
// time.
func runLoad(clk *vclock.VirtualClock, rt *core.Runtime, io *hio.IO, cfg Fig19Config, conns int) float64 {
	per := cfg.TotalRequests / conns
	if per < 1 {
		per = 1
	}
	gen := loadgen.New(io, loadgen.Config{
		Addr:              "web:80",
		Clients:           conns,
		Files:             cfg.effectiveFiles(),
		RequestsPerClient: per,
		Seed:              cfg.Seed,
		RTT:               cfg.RTT,
		Bandwidth:         cfg.Bandwidth,
	})
	start := clk.Now()
	done := make(chan struct{})
	var end vclock.Time
	// Capture the end time inside the workload: once the generator's
	// last thread parks, the quiescent clock races through any pending
	// timers before this goroutine could observe Now().
	rt.Spawn(core.Then(gen.Run(), core.Do(func() {
		end = clk.Now()
		close(done)
	})))
	<-done
	elapsed := time.Duration(end - start)
	if elapsed <= 0 || gen.Requests.Load() == 0 {
		return math.NaN()
	}
	return float64(gen.Bytes.Load()) / float64(MB) / elapsed.Seconds()
}

// Fig19Hybrid measures the paper's web server: monadic threads, AIO,
// application-level cache.
func Fig19Hybrid(cfg Fig19Config, conns int) float64 {
	mbps, _ := Fig19HybridStats(cfg, conns)
	return mbps
}

// Fig19HybridStats runs Fig19Hybrid and also returns the merged metrics
// snapshot (sched.*, kernel.*, disk.*, httpd.*) taken at the end of the
// run.
func Fig19HybridStats(cfg Fig19Config, conns int) (float64, stats.Snapshot) {
	clk, k, fs, rt, io := fig19Site(cfg)
	defer rt.Shutdown()
	defer io.Close()
	scfg := httpd.ServerConfig{
		CacheBytes: cfg.CacheBytes,
		ChunkBytes: int(cfg.FileBytes),
	}
	var in *faults.Injector
	if cfg.Faults.Active() {
		in = faults.New(*cfg.Faults, clk)
		k.SetFaults(in)
		fs.Disk().SetFaults(in)
		scfg.DiskRetries = 2
	}
	srv := httpd.NewServer(io, scfg)
	serve, err := srv.BindAndServe("web:80")
	if err != nil {
		panic(err)
	}
	rt.Spawn(serve)
	mbps := runLoad(clk, rt, io, cfg, conns)
	// Quiesce to the accept-loop thread alone before snapshotting: the
	// load generator's completion is signalled from inside a trace, so
	// handler retirements may still be in flight on other workers.
	rt.WaitLive(1)
	snap := stats.Snapshot{}
	snap.Merge("sched", rt.Stats().Snapshot())
	snap.Merge("kernel", k.Metrics().Snapshot())
	snap.Merge("disk", fs.Disk().Metrics().Snapshot())
	snap.Merge("httpd", srv.Metrics().Snapshot())
	if in != nil {
		snap.Merge("faults", in.Metrics().Snapshot())
	}
	return mbps, snap
}

// Fig19Apache measures the baseline: thread-per-connection blocking
// server whose page cache is squeezed by thread stacks.
func Fig19Apache(cfg Fig19Config, conns int) float64 {
	clk, k, fs, rt, io := fig19Site(cfg)
	defer rt.Shutdown()
	defer io.Close()
	nrt := nptl.New(k, fs, nptl.Config{MemoryBudget: 512 << 20, StackTouch: -1})
	ap := httpd.NewApacheLike(nrt, k, fs, httpd.ApacheConfig{
		PageCacheBytes: cfg.CacheBytes,
		ChunkBytes:     int(cfg.FileBytes),
	})
	if err := ap.ListenAndServe("web:80"); err != nil {
		panic(err)
	}
	return runLoad(clk, rt, io, cfg, conns)
}
