package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"hybrid/internal/bufpool"
	"hybrid/internal/loadgen"
	"hybrid/internal/stats"
)

// segment is what one child process reports: one fixed-size measured
// phase of one workload, with its own set-up before it.
type segment struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Index    int    `json:"segment"`
	Traced   bool   `json:"traced"`

	Attempted uint64  `json:"attempted"`
	Failed    uint64  `json:"failed"`
	MeasureS  float64 `json:"measure_s"`

	// E2E holds the end-to-end metrics of this segment. Exact holds the
	// metrics that are pure functions of workload and seed — they must be
	// bit-identical in every segment. Layer holds the per-layer metrics
	// that depend on the host (GC, RSS, the reference loop).
	E2E   map[string]float64 `json:"e2e"`
	Exact map[string]float64 `json:"exact"`
	Layer map[string]float64 `json:"layer"`

	Spans      []span           `json:"spans"`
	Deltas     map[string]int64 `json:"deltas"` // registry counters over the measured phase
	Violations []string         `json:"violations"`
	Profile    string           `json:"profile,omitempty"`
}

type childOpts struct {
	workload string
	seed     uint64
	index    int
	quick    bool
	profile  string    // CPU profile path; empty runs untraced
	origin   time.Time // when the driver launched this process
}

// warmSeed separates the warm-up's request stream from the measured
// one's: replaying the same stream would turn web-disk's misses into hits.
const warmSeed = 0x7761726d

// runSegment is the body of a child process.
func runSegment(o childOpts) (*segment, error) {
	sp, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.quick {
		sp = sp.quick()
	}
	tr := &spans{origin: o.origin, workload: sp.name, segment: o.index}
	seg := &segment{
		Workload: sp.name, Seed: o.seed, Index: o.index, Traced: o.profile != "",
		E2E: map[string]float64{}, Exact: map[string]float64{}, Layer: map[string]float64{},
		Deltas: map[string]int64{},
	}
	violate := func(format string, args ...any) {
		seg.Violations = append(seg.Violations, fmt.Sprintf(format, args...))
	}
	seg.Layer["host.ref_loop_ns"] = refLoop()

	endSetup := tr.begin("setup")
	b, err := newBed(sp, o.seed, tr)
	if err != nil {
		return nil, err
	}
	defer b.close()
	if sp.herd > 0 {
		end := tr.begin("setup.herd")
		err = b.parkHerd()
		end()
		if err != nil {
			return nil, err
		}
	}
	endSetup()

	end := tr.begin("warmup")
	warm := b.phase(o.seed^warmSeed, sp.warmPerClient, sp.warmHorizon)
	end()
	if warm.errors > 0 || warm.requests == 0 || b.runErr != nil {
		return nil, fmt.Errorf("warm-up: %d requests, %d errors, %v", warm.requests, warm.errors, b.runErr)
	}

	// Correctness pre-flight: every byte of a cached file, of an uncached
	// one where the workload has any, over the workload's own transport.
	end = tr.begin("preflight")
	if sp.prefill {
		err = b.check(loadgen.FileName(0))
	} else {
		var name string
		if name, err = b.uncached(); err == nil {
			if err = b.check(name); err == nil { // from the disk
				err = b.check(name) // and now from the cache
			}
		}
		if _, _, ev := b.srv.Cache().Stats(); ev == 0 {
			violate("warm-up left the cache not evicting")
		}
	}
	end()
	if err != nil {
		return nil, err
	}
	if err := b.drain(); err != nil {
		return nil, err
	}

	runtime.GC()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	snap0 := b.snapshot()
	if o.profile != "" {
		f, err := os.Create(o.profile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
		seg.Profile = o.profile
	}
	cpu0 := cpuTime()
	end = tr.begin("measure")
	t0 := time.Now()
	l := b.phase(o.seed, sp.perClient, sp.horizon)
	wall := time.Since(t0)
	end()
	cpu := cpuTime() - cpu0

	end = tr.begin("drain")
	err = b.drain()
	end()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	snap1 := b.snapshot()
	if l.requests == 0 {
		return nil, fmt.Errorf("no request completed: %d errors, %v", l.errors, b.runErr)
	}

	// Post-segment invariants.
	if want := sp.expected(); want > 0 && l.requests != want {
		violate("requests = %d, want %d", l.requests, want)
	}
	if l.errors != 0 || b.runErr != nil {
		violate("errors = %d (%v)", l.errors, b.runErr)
	}
	if l.ok2xx != l.requests {
		violate("2xx responses = %d of %d", l.ok2xx, l.requests)
	}
	if want := l.requests * uint64(sp.fileBytes); l.bytes != want {
		violate("body bytes = %d, want %d", l.bytes, want)
	}
	delta := func(name string) int64 { return snap1.Counter(name) - snap0.Counter(name) }
	if got := delta("httpd.requests"); got != int64(l.requests) {
		violate("httpd.requests moved by %d, clients completed %d", got, l.requests)
	}
	wantFDs := 2 * sp.herd // both halves of every parked connection
	if !sp.tcp {
		wantFDs++ // the listener
	}
	if got := b.k.OpenFDs(); got != wantFDs {
		violate("open FDs = %d, want %d", got, wantFDs)
	}
	// Each open server connection holds one pooled read buffer.
	if got := bufpool.Outstanding(); got != int64(sp.herd) {
		violate("bufpool outstanding = %d, want %d", got, sp.herd)
	}
	if got := bufpool.SegOutstanding(); got != 0 {
		violate("bufpool segments outstanding = %d, want 0", got)
	}
	if errs := b.rt.UncaughtErrors(); len(errs) > 0 {
		violate("uncaught exceptions: %v", errs)
	}

	attempted := sp.expected()
	if attempted == 0 {
		attempted = l.requests + l.errors
	}
	seg.Attempted = attempted
	seg.Failed = attempted - min(l.ok2xx, attempted)
	seg.MeasureS = wall.Seconds()

	reqs := float64(l.requests)
	seg.E2E["req_per_s"] = reqs / wall.Seconds()
	seg.E2E["cpu_us_per_req"] = float64(cpu.Microseconds()) / reqs
	seg.E2E["allocs_per_req"] = float64(m1.Mallocs-m0.Mallocs) / reqs
	seg.E2E["live_heap_mb"] = float64(m0.HeapAlloc) / (1 << 20)
	seg.E2E["setup_s"] = t0.Sub(o.origin).Seconds()
	seg.Exact["virt_mbps"] = float64(l.bytes) / (1 << 20) / l.virt.Seconds()
	seg.Exact["requests"] = reqs

	for name, m := range snap1 {
		if m.Kind == "counter" {
			seg.Deltas[name] = delta(name)
		}
	}
	layerCounts(seg, snap0, snap1, reqs)
	seg.Exact["loadgen.virt_lat_mean_us"] = l.latMeanUs
	seg.Exact["loadgen.virt_lat_p99_us"] = l.latP99Us
	seg.Exact["loadgen.virt_lat_max_us"] = l.latMaxUs
	seg.Layer["gc.cycles_per_kreq"] = float64(m1.NumGC-m0.NumGC) / reqs * 1000
	seg.Layer["gc.alloc_bytes_per_req"] = float64(m1.TotalAlloc-m0.TotalAlloc) / reqs
	seg.Layer["gc.pause_total_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	seg.Layer["host.peak_rss_mb"] = peakRSSMB()
	seg.Spans = tr.list
	return seg, nil
}

// phase runs one closed-loop traffic phase with the workload's client.
func (b *bed) phase(seed uint64, perClient int, horizon time.Duration) load {
	if b.spec.tcp {
		return b.tcpLoad(seed, perClient)
	}
	return b.loadgen(seed, perClient, horizon)
}

// snapshot merges every layer's public registry, prefixed by layer.
func (b *bed) snapshot() stats.Snapshot {
	s := stats.Snapshot{}
	s.Merge("core", b.rt.Stats().Snapshot())
	s.Merge("kernel", b.k.Metrics().Snapshot())
	s.Merge("disk", b.fs.Disk().Metrics().Snapshot())
	s.Merge("httpd", b.srv.Metrics().Snapshot())
	s.Merge("bufpool", bufpool.Metrics().Snapshot())
	if b.spec.tcp {
		// Both stacks run in this process; the tcp layer is their sum.
		srv, cli := b.stackS.Metrics().Snapshot(), b.stackC.Metrics().Snapshot()
		for name, m := range srv {
			m.Value += cli[name].Value
			s["tcp."+name] = m
		}
		sent, _, dropped, _ := b.net.Stats()
		s["netsim.sent"] = stats.Metric{Kind: "counter", Value: int64(sent)}
		s["netsim.dropped"] = stats.Metric{Kind: "counter", Value: int64(dropped)}
	}
	return s
}

// layerCounts derives the exact per-request layer metrics from the
// registry deltas of the measured phase.
func layerCounts(seg *segment, s0, s1 stats.Snapshot, reqs float64) {
	d := func(name string) float64 { return float64(s1.Counter(name) - s0.Counter(name)) }
	sum := func(name string) float64 { return float64(s1[name].Sum - s0[name].Sum) }
	count := func(name string) float64 { return float64(s1[name].Count - s0[name].Count) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	x := seg.Exact
	x["core.nodes_per_req"] = sum("core.batch_used") / reqs
	x["core.dispatches_per_req"] = d("core.dispatches") / reqs
	x["core.parks_per_req"] = d("core.parks") / reqs
	x["core.spawns_per_req"] = d("core.spawned") / reqs
	x["core.blio_submits_per_req"] = d("core.blio_submits") / reqs
	x["kernel.reads_per_req"] = d("kernel.reads") / reqs
	x["kernel.writes_per_req"] = d("kernel.writes") / reqs
	x["kernel.eagains_per_req"] = d("kernel.eagains") / reqs
	x["kernel.wakeups_per_req"] = d("kernel.wakeups") / reqs
	x["kernel.bytes_copied_per_req"] = (d("kernel.bytes_read") + d("kernel.bytes_written")) / reqs
	x["httpd.cache_hit_ratio"] = ratio(d("httpd.cache_hits"), d("httpd.cache_hits")+d("httpd.cache_misses"))
	x["httpd.aio_serves_per_req"] = d("httpd.aio_serves") / reqs
	x["httpd.cache_evictions_per_req"] = d("httpd.cache_evictions") / reqs
	x["disk.requests_per_req"] = d("disk.requests") / reqs
	x["disk.mean_queue_depth"] = ratio(sum("disk.queue_depth"), count("disk.queue_depth"))
	x["disk.seek_blocks_per_req"] = sum("disk.seek_blocks") / reqs
	x["tcp.segs_out_per_req"] = d("tcp.segs_out") / reqs
	x["tcp.retransmits_per_req"] = (d("tcp.retransmits") + d("tcp.fast_retransmits") + d("tcp.recovery_rexmits")) / reqs
	x["tcp.rto_expiries_per_req"] = d("tcp.rto_expiries") / reqs
	x["tcp.fast_recoveries_per_req"] = d("tcp.fast_recoveries") / reqs
	x["netsim.packets_per_req"] = d("netsim.sent") / reqs
	x["netsim.drop_ratio"] = ratio(d("netsim.dropped"), d("netsim.sent"))
	// The pools sit on sync.Pool, which the collector empties: gets are
	// exact, misses follow GC timing.
	x["bufpool.gets_per_req"] = (d("bufpool.gets") + d("bufpool.segment_gets")) / reqs
	seg.Layer["bufpool.miss_ratio"] = ratio(d("bufpool.misses")+d("bufpool.segment_misses"),
		d("bufpool.gets")+d("bufpool.segment_gets"))
}

// cpuTime is the process's user+system CPU time over all threads, so
// concurrent GC work counts.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

var refSink uint64

// refLoop times a fixed arithmetic+memmove loop — the same work at every
// child start, so host drift between two sets of runs is visible next to
// the numbers it moved. The median of five repetitions, in ns.
func refLoop() float64 {
	src, dst := make([]byte, 1<<20), make([]byte, 1<<20)
	times := make([]float64, 5)
	for r := range times {
		t0 := time.Now()
		h := uint64(r)
		for i := 0; i < 2_000_000; i++ {
			h = h*6364136223846793005 + 1442695040888963407
		}
		for i := 0; i < 8; i++ {
			src[i] = byte(h >> (8 * i))
			copy(dst, src)
		}
		refSink += h + uint64(dst[7])
		times[r] = float64(time.Since(t0).Nanoseconds())
	}
	sort.Float64s(times)
	return times[len(times)/2]
}
