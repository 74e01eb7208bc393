package main

import "time"

// spec is one workload: the traffic, the fileset, and the fixed amount
// of work in a segment. Request counts are constants, never time-based,
// so every segment of a workload does exactly the same work and its
// exact metrics must repeat bit for bit.
type spec struct {
	name string
	why  string // one line; BENCHMARK.json carries the same text

	tcp        bool // ServeTCP over internal/tcp + netsim instead of kernel sockets
	clients    int  // closed-loop simulated clients (in-process data, not OS threads)
	files      int
	fileBytes  int64
	cacheBytes int64
	prefill    bool    // the whole fileset is put into the cache at set-up
	lossS2C    float64 // seeded loss on the server→client path
	herd       int     // parked keep-alive connections established at set-up

	// The measured phase: perClient requests on each client's keep-alive
	// connection, or — churn — one-request sessions for a virtual horizon.
	perClient int
	horizon   time.Duration
	// The warm-up, same shape, sized so set-up takes at least half a
	// second and a tenth of it is resolvable.
	warmPerClient int
	warmHorizon   time.Duration
}

var workloads = []spec{
	{
		name:    "web-cached",
		why:     "64 keep-alive clients, 256 x 16 KB files all cached: the per-request fast path; CPU spreads over kernel, httpd, core, bufpool, hio and loadgen, disk and tcp idle",
		clients: 64, files: 256, fileBytes: 16 << 10, cacheBytes: 100 << 20, prefill: true,
		perClient: 6250, warmPerClient: 1000,
	},
	{
		name:    "web-disk",
		why:     "Figure 19 proper: 256 clients, 131072 x 16 KB files, 100 MB cache (5% hits): AIO, FS content, cache put/evict and the disk model; bypasses the serve fast path",
		clients: 256, files: 128 << 10, fileBytes: 16 << 10, cacheBytes: 100 << 20,
		perClient: 118, warmPerClient: 28,
	},
	{
		name:    "web-tcp-loss",
		why:     "same server over internal/tcp (SACK) and netsim with 1% seeded server-to-client loss, 64 verifying clients: segment codec, checksum, scoreboard, RTO/wheel and netsim do the work",
		tcp:     true,
		clients: 64, files: 256, fileBytes: 16 << 10, cacheBytes: 100 << 20, prefill: true, lossS2C: 0.01,
		perClient: 235, warmPerClient: 40,
	},
	{
		name:    "churn-c10k",
		why:     "10000 parked keep-alive connections, then 16 clients doing connect, one 1 KB GET, close: per-connection set-up, spawns and allocation under a large pointerful live heap",
		clients: 16, files: 16, fileBytes: 1 << 10, cacheBytes: 1 << 20, prefill: true, herd: 10000,
		horizon: 2500 * time.Millisecond, warmHorizon: 300 * time.Millisecond,
	},
}

// quick divides every count by 100 for the tests.
func (s spec) quick() spec {
	div := func(n int) int {
		if n == 0 {
			return 0
		}
		return max(1, n/100)
	}
	s.perClient, s.warmPerClient, s.herd = div(s.perClient), div(s.warmPerClient), div(s.herd)
	s.horizon /= 100
	s.warmHorizon /= 100
	if !s.prefill {
		// Keep the cache at the same share of the fileset, so the
		// warm-up still leaves it evicting.
		s.files /= 100
		s.cacheBytes /= 100
	}
	return s
}

// expected is the exact request count of a measured phase, or 0 when it
// is set by the virtual horizon (then only its repeatability is checked).
func (s spec) expected() uint64 { return uint64(s.clients * s.perClient) }

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}
