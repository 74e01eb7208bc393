// benchjson runs the repository's performance benchmarks and writes the
// machine-readable trajectory files BENCH_fig17.json, BENCH_fig19.json,
// BENCH_fig20.json, and BENCH_fig21.json (one bench.RunStats object per
// run, concatenated). Each record carries
// the deterministic virtual-time throughput plus the wall-clock side —
// wall ms, wall MB/s, virtual-time p99, and for the microbenchmarks the
// -benchmem triple (ns/op, B/op, allocs/op) — so later PRs can prove
// perf changes against the committed baseline instead of asserting them.
//
// Figure runs use the quick configurations: the trajectory tracks the
// cost of simulating a fixed deterministic workload, not the figures'
// full-scale curves.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"hybrid/internal/bench"
)

func main() {
	label := flag.String("label", "dev", "trajectory label recorded on every row")
	fig17Path := flag.String("fig17", "BENCH_fig17.json", "output file for Figure 17 rows")
	fig19Path := flag.String("fig19", "BENCH_fig19.json", "output file for Figure 19 + micro rows")
	fig20Path := flag.String("fig20", "BENCH_fig20.json", "output file for Figure 20 rows")
	fig21Path := flag.String("fig21", "BENCH_fig21.json", "output file for Figure 21 rows")
	fig22Path := flag.String("fig22", "BENCH_fig22.json", "output file for Figure 22 rows")
	corePath := flag.String("core", "BENCH_core.json", "output file for monadic-core trampoline rows")
	appendOut := flag.Bool("append", false, "append to the output files instead of truncating")
	microOnly := flag.Bool("micro-only", false, "run only the Go microbenchmarks")
	flag.Parse()

	var fig17Rows, fig19Rows, fig20Rows, fig21Rows, fig22Rows []bench.RunStats

	if !*microOnly {
		// Figure 17 (quick): disk head scheduling at three thread counts.
		cfg17 := bench.Fig17Quick()
		for _, n := range []int{1, 64, 4096} {
			start := time.Now()
			mbps, _ := bench.Fig17HybridStats(cfg17, n)
			wall := time.Since(start)
			fig17Rows = append(fig17Rows, bench.RunStats{
				Figure: "fig17", System: "hybrid", Label: *label, X: n, MBps: mbps,
				WallMS:   float64(wall.Microseconds()) / 1e3,
				WallMBps: float64(cfg17.TotalReadBytes) / float64(bench.MB) / wall.Seconds(),
			})
			fmt.Printf("fig17 hybrid threads=%-5d %7.3f MB/s (virtual)  wall %v\n", n, mbps, wall.Round(time.Millisecond))
		}

		// Figure 19 (quick): the web server under the disk-intensive and
		// the mostly-cached workload, with per-request latency measured.
		for _, w := range []struct {
			name   string
			cached bool
		}{{"hybrid-disk", false}, {"hybrid-cached", true}} {
			// Quick shape, but 16x the requests: the wall-clock side of a
			// row needs a seconds-scale run to be comparable across PRs.
			cfg19 := bench.Fig19Quick()
			cfg19.TotalRequests = 8192
			cfg19.Cached = w.cached
			start := time.Now()
			p := bench.Fig19HybridPerf(cfg19, 64)
			wall := time.Since(start)
			fig19Rows = append(fig19Rows, bench.RunStats{
				Figure: "fig19", System: w.name, Label: *label, X: 64, MBps: p.MBps,
				P99Us:    p.P99Us,
				WallMS:   float64(wall.Microseconds()) / 1e3,
				WallMBps: float64(p.Bytes) / float64(bench.MB) / wall.Seconds(),
			})
			fmt.Printf("fig19 %-14s conns=64 %7.3f MB/s (virtual)  p99 %dus  wall %v  %.1f MB/s (wall)\n",
				w.name, p.MBps, p.P99Us, wall.Round(time.Millisecond),
				float64(p.Bytes)/float64(bench.MB)/wall.Seconds())
		}

		// Figure 20: loss-recovery goodput. The full configuration, not the
		// quick one — its virtual transfers cost milliseconds of wall time,
		// and the committed rows are the figure's claim (SACK variants
		// dominating plain Reno under loss), so they use the figure's scale.
		// Unlike the fig17/fig19 rows there is no wall-clock column: every
		// number is virtual, so regenerating the file with the same label
		// must reproduce it byte-for-byte.
		cfg20 := bench.DefaultFig20()
		for _, pm := range cfg20.LossPermille {
			for _, v := range bench.Fig20Variants {
				mbps := bench.Fig20Cell(cfg20, v, pm)
				fig20Rows = append(fig20Rows, bench.RunStats{
					Figure: "fig20", System: v, Label: *label, X: pm, MBps: mbps,
				})
				fmt.Printf("fig20 %-11s loss=%.1f%% %7.4f MB/s (virtual)\n",
					v, float64(pm)/10, mbps)
			}
		}
		// Figure 21: good-client goodput under attack, defenses off vs on.
		// Full configuration, all virtual (like fig20): the committed rows
		// are the figure's claim — slot-pinning attacks collapse the
		// undefended server while the lifecycle deadlines hold goodput at
		// the baseline — and regenerating with the same label reproduces
		// them byte-for-byte. X is the attacker count.
		cfg21 := bench.DefaultFig21()
		for _, mode := range bench.Fig21Modes {
			for _, defended := range []bool{false, true} {
				p := bench.Fig21Run(cfg21, mode, defended)
				system := mode + "-off"
				if defended {
					system = mode + "-on"
				}
				fig21Rows = append(fig21Rows, bench.RunStats{
					Figure: "fig21", System: system, Label: *label,
					X: cfg21.Attackers, MBps: p.GoodputMBps, P99Us: p.P99Us,
				})
				fmt.Printf("fig21 %-14s %8.3f MB/s (virtual)  p99 %dus  sheds %d\n",
					system, p.GoodputMBps, p.P99Us, p.Sheds.Total())
			}
		}
		// Figure 22: the million-connection capacity sweep, full scale —
		// the committed rows are the capstone capacity claim, including
		// the 1M-connection row. The virtual columns (MBps, P99Us) are
		// deterministic; BytesPerConn reads the Go allocator and plays
		// the role the wall-clock columns do in fig17/fig19: the
		// machine-local cost side of the trajectory. X is the parked
		// fleet size.
		cfg22 := bench.DefaultFig22()
		for _, n := range cfg22.Conns {
			start := time.Now()
			p := bench.Fig22Run(cfg22, n)
			wall := time.Since(start)
			fig22Rows = append(fig22Rows, bench.RunStats{
				Figure: "fig22", System: "hybrid", Label: *label,
				X: p.Conns, MBps: p.GoodputMBps, P99Us: p.P99Us,
				BytesPerConn: p.ParkedBytesPerConn,
				WallMS:       float64(wall.Microseconds()) / 1e3,
			})
			fmt.Printf("fig22 conns=%-8d %8.1f B/conn parked  %7.3f MB/s (virtual)  p99 %dus  wall %v\n",
				p.Conns, p.ParkedBytesPerConn, p.GoodputMBps, p.P99Us, wall.Round(time.Millisecond))
		}
	}

	// Go microbenchmarks: the allocation trajectory of the hot paths.
	for _, m := range bench.Micros() {
		rs := bench.RunMicro(m, *label)
		fig19Rows = append(fig19Rows, rs)
		fmt.Println(bench.FormatMicro(rs))
	}

	// Monadic-core trampoline rows: the fused/naive steps-per-second pair,
	// kept in their own trajectory file so the continuation-flattening
	// delta is visible across PRs without digging through the fig19 rows.
	var coreRows []bench.RunStats
	for _, m := range bench.CoreMicros() {
		rs := bench.RunMicro(m, *label)
		rs.Figure = "core"
		coreRows = append(coreRows, rs)
		fmt.Println(bench.FormatMicro(rs))
	}

	writeRows(*fig17Path, fig17Rows, *appendOut)
	writeRows(*fig19Path, fig19Rows, *appendOut)
	writeRows(*fig20Path, fig20Rows, *appendOut)
	writeRows(*fig21Path, fig21Rows, *appendOut)
	writeRows(*fig22Path, fig22Rows, *appendOut)
	writeRows(*corePath, coreRows, *appendOut)
}

func writeRows(path string, rows []bench.RunStats, appendOut bool) {
	if len(rows) == 0 {
		return
	}
	flags := os.O_CREATE | os.O_WRONLY
	if appendOut {
		flags |= os.O_APPEND
	} else {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	defer f.Close()
	for _, rs := range rows {
		if err := bench.WriteRunStats(f, rs); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
	fmt.Printf("wrote %d rows to %s\n", len(rows), path)
}
