package bench

import (
	"math"
	"runtime"
	"time"

	"hybrid/internal/core"
	"hybrid/internal/httpd"
	"hybrid/internal/loadgen"
)

// Fig22Config parameterizes the million-connection capacity figure: a
// fleet of parked keep-alive connections (each established, served one
// request, and left idle with an armed timer-wheel deadline) while a
// small background population trickles requests over the same server.
// The figure reports bytes per parked connection and the background
// mix's p99 — the paper's scalability claim pushed to the CPC regime
// where per-connection memory, not scheduling, is the binding
// constraint.
type Fig22Config struct {
	// Conns is the sweep of parked-fleet sizes (the x axis).
	Conns []int
	// ActiveClients and RequestsPerClient shape the background mix: a
	// closed-loop population issuing its budget over persistent
	// connections while the fleet sits parked.
	ActiveClients     int
	RequestsPerClient int
	// Files and FileBytes shape the (fully cached) fileset.
	Files     int
	FileBytes int64
	// CacheBytes comfortably holds the fileset: the figure is about
	// connection state, not disk contention.
	CacheBytes int64
	// RTT and Bandwidth model the client-server link for the background
	// mix (the parked fleet pays them once, at establishment).
	RTT       time.Duration
	Bandwidth int64
	// Seed drives the background mix's request stream.
	Seed uint64
	// MeasureMemory controls the host-side heap measurement. The
	// parked-bytes figure is read from the Go runtime's allocator, so it
	// is not virtual-time deterministic; the determinism gate runs with
	// it off and compares only the virtual-time columns.
	MeasureMemory bool
}

// DefaultFig22 sweeps 10k → 1M parked connections — the capstone scale.
// 64 background clients × 32 requests keep the trickle light: the
// point is that a million parked connections neither crowd them out of
// memory nor stretch their tail.
func DefaultFig22() Fig22Config {
	return Fig22Config{
		Conns:             []int{10_000, 100_000, 1_000_000},
		ActiveClients:     64,
		RequestsPerClient: 32,
		Files:             16,
		FileBytes:         4096,
		CacheBytes:        1 << 20,
		RTT:               300 * time.Microsecond,
		Bandwidth:         100_000_000 / 8,
		Seed:              22,
		MeasureMemory:     true,
	}
}

// Fig22Quick is reduced for tests and the determinism gate.
func Fig22Quick() Fig22Config {
	c := DefaultFig22()
	c.Conns = []int{1000, 4000}
	c.ActiveClients = 16
	c.RequestsPerClient = 8
	return c
}

// NPTLModelStackBytes is the NPTL baseline's per-connection memory at
// this scale: one kernel thread per parked connection at the paper's
// 32 KB configured stack (internal/nptl's default). Unlike figures 17
// and 18 the baseline here is reservation arithmetic, not a run — the
// nptl runtime refuses fleets past its 512 MB budget (16 K threads),
// which is itself the point: the sweep's upper rows are two orders of
// magnitude beyond where a thread-per-connection server stops
// admitting connections at all.
const NPTLModelStackBytes = 32 * 1024

// Fig22Point is one sweep cell: the cost and service quality of one
// parked-fleet size.
type Fig22Point struct {
	// Conns is the parked-fleet size.
	Conns int
	// ParkedBytesPerConn is the live-heap cost of one parked keep-alive
	// connection, measured after the fleet is fully established and
	// before the background mix starts. NaN when MeasureMemory is off.
	ParkedBytesPerConn float64
	// NPTLModelBytesPerConn is the modelled thread-per-connection
	// baseline cost: NPTLModelStackBytes, constant in the fleet size.
	// Reported next to the measured column in the non-deterministic
	// figure output only (it is a memory-model column, like
	// ParkedBytesPerConn, not a virtual-time result).
	NPTLModelBytesPerConn float64
	// P99Us is the background mix's p99 request latency (µs, virtual).
	P99Us int64
	// Requests and Errors are the background mix's totals.
	Requests uint64
	Errors   uint64
	// GoodputMBps is the background mix's delivered 2xx bytes per second
	// of virtual time over its own window.
	GoodputMBps float64
}

// fleetServer configures a server for a parked fleet: hour-scale
// deadlines, so every parked connection carries a real wheel timer and
// none fires under the frozen clock, and a backlog that holds the whole
// fleet — every connect lands before the accept loop's first dispatch
// turn, and with time frozen a refused connect cannot back off and retry.
func fleetServer(cacheBytes int64, backlog int) httpd.ServerConfig {
	return httpd.ServerConfig{
		CacheBytes: cacheBytes,
		Overload:   &httpd.OverloadConfig{Backlog: backlog},
		Lifecycle: &httpd.LifecycleConfig{
			IdleTimeout:       time.Hour,
			HeaderTimeout:     time.Hour,
			WriteStallTimeout: time.Hour,
		},
	}
}

// keepAliveGet renders the fleet's one request for name.
func keepAliveGet(name string) []byte {
	return []byte("GET /" + name + " HTTP/1.1\r\nHost: fleet\r\nConnection: keep-alive\r\n\r\n")
}

// heapAlloc is the live heap after a major collection.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// Fig22Run measures one sweep cell. The phase structure mirrors
// bench.ConnMemTest: on a frozen site (so the fleet's idle deadlines are
// pinned wheel state throughout, not a reaping storm once the mix stops
// holding time back) the host establishes the fleet — connect, one fully
// drained keep-alive request, park — measures the parked heap, then runs
// the background mix, for which alone the clock is released.
func Fig22Run(cfg Fig22Config, conns int) Fig22Point {
	s := NewSite(Spec{
		Files: cfg.Files, FileBytes: cfg.FileBytes, Frozen: true,
		Server: fleetServer(cfg.CacheBytes, conns+cfg.ActiveClients+64),
	})
	defer s.Close()
	s.Warm()

	var before uint64
	if cfg.MeasureMemory {
		before = heapAlloc()
	}
	s.Park(conns, func(i int, t httpd.Transport) core.M[core.Unit] {
		req := keepAliveGet(loadgen.FileName(i % cfg.Files))
		return core.Then(Get(t, req, make([]byte, 2048)), core.Skip)
	})
	parked := math.NaN()
	if cfg.MeasureMemory {
		parked = float64(heapAlloc()-before) / float64(conns)
	}

	// Background mix: a plain-mode generator (every client one
	// persistent connection, a fixed request budget, no horizon) so Run
	// returns exactly when the budget is delivered — no straggler
	// threads to drain.
	gen := loadgen.New(s.IO, loadgen.Config{
		Addr:              Addr,
		Clients:           cfg.ActiveClients,
		Files:             cfg.Files,
		RequestsPerClient: cfg.RequestsPerClient,
		Seed:              cfg.Seed,
		RTT:               cfg.RTT,
		Bandwidth:         cfg.Bandwidth,
		MeasureLatency:    true,
	})
	elapsed := s.Run(gen.Run())
	return Fig22Point{
		Conns:                 conns,
		ParkedBytesPerConn:    parked,
		NPTLModelBytesPerConn: NPTLModelStackBytes,
		P99Us:                 gen.Latency().Quantile(0.99),
		Requests:              gen.Requests.Load(),
		Errors:                gen.Errors.Load(),
		GoodputMBps:           mbPerSec(gen.Goodput.Load(), elapsed),
	}
}
