package main

// metric names one reported number. The same tables drive the printed
// report, -diff, and the BENCHMARK.json consistency test.
type metric struct {
	name   string
	unit   string
	higher bool    // true when a larger value is better
	bound  float64 // share of the median it may worsen by; end-to-end only
}

// endToEnd is what a user of the server would see. Every workload
// reports all of them; timing metrics are medians over segments.
//
// fail_ratio is printed by the suite but is not in this table: it is 0
// on every workload by construction, and the contract's result line
// carries it as failed/attempted instead.
//
// The bounds are what this host affords, each at least three times the
// spread of ten runs with ten seeds (README, "Steadiness"). The three
// wall-clock metrics get the largest bound allowed: the host has calm
// and contended phases, tens of minutes long, between which cache-missing
// code runs up to 1.4x slower while an arithmetic loop does not move.
// virt_mbps is exact for a seed; its bound covers web-tcp-loss, where the
// seed decides which client draws the unlucky retransmission timeouts.
var endToEnd = []metric{
	{"req_per_s", "1/s", true, 0.25},
	{"cpu_us_per_req", "us", false, 0.25},
	{"allocs_per_req", "count", false, 0.02},
	{"virt_mbps", "MB/s", true, 0.10},
	{"live_heap_mb", "MB", false, 0.05},
	{"setup_s", "s", false, 0.25},
}

// profLayers are the layers a CPU sample can be charged to: the package
// names under hybrid/internal, the benchmark's own client, and
// runtime_bg for samples with no repository frame (GC workers, the Go
// scheduler).
var profLayers = []string{
	"core", "hio", "kernel", "vclock", "timerwheel", "disk", "netsim", "tcp",
	"iovec", "bufpool", "httpd", "loadgen", "stats", "client", "runtime_bg",
}

// layerCountMetrics are measured on every traced run of a workload.
var layerCountMetrics = []metric{
	{name: "core.nodes_per_req", unit: "count"},
	{name: "core.dispatches_per_req", unit: "count"},
	{name: "core.parks_per_req", unit: "count"},
	{name: "core.spawns_per_req", unit: "count"},
	{name: "core.blio_submits_per_req", unit: "count"},
	{name: "kernel.reads_per_req", unit: "count"},
	{name: "kernel.writes_per_req", unit: "count"},
	{name: "kernel.eagains_per_req", unit: "count"},
	{name: "kernel.wakeups_per_req", unit: "count"},
	{name: "kernel.bytes_copied_per_req", unit: "B"},
	{name: "bufpool.gets_per_req", unit: "count"},
	{name: "bufpool.miss_ratio", unit: "ratio"},
	{name: "httpd.cache_hit_ratio", unit: "ratio", higher: true},
	{name: "httpd.aio_serves_per_req", unit: "count"},
	{name: "httpd.cache_evictions_per_req", unit: "count"},
	{name: "disk.requests_per_req", unit: "count"},
	{name: "disk.mean_queue_depth", unit: "count"},
	{name: "disk.seek_blocks_per_req", unit: "count"},
	{name: "tcp.segs_out_per_req", unit: "count"},
	{name: "tcp.retransmits_per_req", unit: "count"},
	{name: "tcp.rto_expiries_per_req", unit: "count"},
	{name: "tcp.fast_recoveries_per_req", unit: "count"},
	{name: "netsim.packets_per_req", unit: "count"},
	{name: "netsim.drop_ratio", unit: "ratio"},
	{name: "loadgen.virt_lat_mean_us", unit: "us"},
	{name: "loadgen.virt_lat_p99_us", unit: "us"},
	{name: "loadgen.virt_lat_max_us", unit: "us"},
	{name: "gc.cycles_per_kreq", unit: "count"},
	{name: "gc.alloc_bytes_per_req", unit: "B"},
	{name: "gc.pause_total_ms", unit: "ms"},
	{name: "host.peak_rss_mb", unit: "MB"},
	{name: "host.ref_loop_ns", unit: "ns"},
	{name: "trace.overhead_ratio", unit: "ratio", higher: true},
}

// perLayer lists every per-layer metric: CPU shares, counts per request,
// then each probe's unit cost and allocations.
func perLayer() []metric {
	var out []metric
	for _, l := range profLayers {
		out = append(out, metric{name: "prof." + l + "_share", unit: "ratio"})
	}
	out = append(out, layerCountMetrics...)
	for _, p := range probes {
		out = append(out, metric{name: p.name, unit: p.unit}, metric{name: p.allocsName(), unit: "count"})
	}
	return out
}
