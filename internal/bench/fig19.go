package bench

import (
	"math"
	"time"

	"hybrid/internal/faults"
	"hybrid/internal/httpd"
	"hybrid/internal/loadgen"
	"hybrid/internal/nptl"
	"hybrid/internal/stats"
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

// spec is the testbed the configuration describes.
func (c Fig19Config) spec(server httpd.ServerConfig) Spec {
	server.CacheBytes, server.ChunkBytes = c.CacheBytes, int(c.FileBytes)
	return Spec{Files: c.Files, FileBytes: c.FileBytes, Server: server, Faults: c.Faults}
}

// load is the figure's client population: conns persistent connections
// sharing the request budget.
func (c Fig19Config) load(conns int) loadgen.Config {
	return loadgen.Config{
		Addr:              Addr,
		Clients:           conns,
		Files:             c.effectiveFiles(),
		RequestsPerClient: max(1, c.TotalRequests/conns),
		Seed:              c.Seed,
		RTT:               c.RTT,
		Bandwidth:         c.Bandwidth,
	}
}

// runLoad drives the generator to completion and returns MB/s of virtual
// time.
func runLoad(b *Substrate, cfg Fig19Config, conns int) float64 {
	gen := loadgen.New(b.IO, cfg.load(conns))
	elapsed := b.Run(gen.Run())
	if gen.Requests.Load() == 0 {
		return math.NaN()
	}
	return mbPerSec(gen.Bytes.Load(), elapsed)
}

// Fig19HybridStats measures the paper's web server: monadic threads, AIO,
// application-level cache. It returns MB/s of virtual time and the merged
// metrics snapshot (sched.*, kernel.*, disk.*, httpd.*) of the drained site.
func Fig19HybridStats(cfg Fig19Config, conns int) (float64, stats.Snapshot) {
	s := NewSite(cfg.spec(httpd.ServerConfig{}))
	defer s.Close()
	mbps := runLoad(s.Substrate, cfg, conns)
	s.Drain()
	return mbps, s.Snapshot()
}

// Fig19Apache measures the baseline: thread-per-connection blocking
// server whose page cache is squeezed by thread stacks.
func Fig19Apache(cfg Fig19Config, conns int) float64 {
	// Never the fault plan: the baseline has no retry or degradation path.
	b := NewSubstrate(Spec{Files: cfg.Files, FileBytes: cfg.FileBytes})
	defer b.Close()
	nrt := nptl.New(b.K, b.FS, nptl.Config{MemoryBudget: 512 << 20, StackTouch: -1})
	ap := httpd.NewApacheLike(nrt, b.K, b.FS, httpd.ApacheConfig{
		PageCacheBytes: cfg.CacheBytes,
		ChunkBytes:     int(cfg.FileBytes),
	})
	if err := ap.ListenAndServe(Addr); err != nil {
		panic(err)
	}
	return runLoad(b, cfg, conns)
}
