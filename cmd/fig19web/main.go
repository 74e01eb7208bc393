// fig19web regenerates Figure 19, the web-server comparison: clients
// request random 16 KB files from a 128K-file set; the hybrid server
// (monadic threads + AIO + 100 MB application cache) is compared with the
// Apache stand-in (thread-per-connection blocking server whose page cache
// is squeezed by kernel-thread stacks). -cached runs the paper's
// mostly-cached variant instead.
package main

import (
	"flag"
	"fmt"
	"os"

	"hybrid/internal/bench"
	"hybrid/internal/faults"
)

func main() {
	quick := flag.Bool("quick", false, "smaller fileset and request count")
	cached := flag.Bool("cached", false, "mostly-cached working set (§5.2 text)")
	maxConns := flag.Int("max-conns", 1024, "largest connection count")
	emitStats := flag.Bool("stats", false, "emit a JSON stats block per hybrid run")
	faultSpec := flag.String("faults", "",
		"deterministic fault plan for the hybrid runs: seed=N,rate=R[,<op>=R]")
	overloadMode := flag.Bool("overload", false,
		"run the overload table instead: goodput and p99 at 1x/2x/4x offered load, protection off and on")
	overloadConns := flag.Int("overload-conns", 64, "capacity point (admission bound) for -overload")
	flag.Parse()

	cfg := bench.DefaultFig19()
	if *quick {
		cfg = bench.Fig19Quick()
	}
	cfg.Cached = *cached
	fcfg, err := faults.ParseSpec(*faultSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fig19web:", err)
		os.Exit(2)
	}
	cfg.Faults = fcfg
	if *overloadMode {
		runOverloadTable(cfg, *overloadConns, *emitStats)
		return
	}
	var counts []int
	for n := 1; n <= *maxConns; n *= 4 {
		counts = append(counts, n)
	}
	label := "disk-intensive"
	if *cached {
		label = "mostly-cached"
	}
	fmt.Printf("Figure 19: web server under %s load (throughput vs connections)\n", label)
	fmt.Printf("files=%d×%dKB cache=%dMB requests=%d\n",
		cfg.Files, cfg.FileBytes>>10, cfg.CacheBytes>>20, cfg.TotalRequests)
	if cfg.Faults.Active() {
		fmt.Printf("faults: %s (hybrid runs only; Apache baseline is fault-free)\n", *faultSpec)
	}
	fmt.Println()
	pts := make([]bench.Point, 0, len(counts))
	runs := make([]bench.RunStats, 0, len(counts))
	for _, n := range counts {
		mbps, snap := bench.Fig19HybridStats(cfg, n)
		pts = append(pts, bench.Point{X: n, Hybrid: mbps, NPTL: bench.Fig19Apache(cfg, n)})
		runs = append(runs, bench.RunStats{
			Figure: "fig19", System: "hybrid", X: n, MBps: mbps, Stats: snap,
		})
	}
	bench.PrintSeries(os.Stdout, "connections", pts, "Hybrid server", "Apache-like")
	if !*emitStats {
		return
	}
	fmt.Println()
	for _, rs := range runs {
		if err := bench.WriteRunStats(os.Stdout, rs); err != nil {
			panic(err)
		}
	}
}

// runOverloadTable prints the overload companion to the figure: the
// hybrid server held at a fixed capacity while the offered load is
// multiplied past it, with and without the overload machinery.
func runOverloadTable(cfg bench.Fig19Config, conns int, emitStats bool) {
	fmt.Printf("Figure 19 (overload): goodput and p99 vs offered load, capacity %d conns\n", conns)
	fmt.Printf("files=%d×%dKB cache=%dMB requests=%d per 1x\n",
		cfg.Files, cfg.FileBytes>>10, cfg.CacheBytes>>20, cfg.TotalRequests)
	fmt.Println()
	fmt.Printf("%-8s %-11s %13s %12s %8s %8s %9s\n",
		"offered", "protection", "goodput MB/s", "p99", "errors", "shed", "rejects")
	runs := bench.Fig19OverloadTable(cfg, conns, []int{1, 2, 4})
	for _, r := range runs {
		prot := "off"
		if r.Protected {
			prot = "on"
		}
		fmt.Printf("%-8s %-11s %13.2f %12v %8d %8d %9d\n",
			fmt.Sprintf("%dx", r.OfferedX), prot, r.GoodputMBps, r.P99,
			r.Errors, r.Shed, r.Snapshot.Counter("kernel.backlog_rejects"))
	}
	if !emitStats {
		return
	}
	fmt.Println()
	for _, r := range runs {
		system := "unprotected"
		if r.Protected {
			system = "protected"
		}
		if err := bench.WriteRunStats(os.Stdout, bench.RunStats{
			Figure: "fig19-overload", System: system, X: r.OfferedX,
			MBps: r.GoodputMBps, Stats: r.Snapshot,
		}); err != nil {
			panic(err)
		}
	}
}
