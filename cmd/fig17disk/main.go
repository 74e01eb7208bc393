// fig17disk regenerates Figure 17, the disk head-scheduling test: random
// 4 KB reads from a 1 GB file by N concurrent threads, hybrid runtime
// (AIO) vs the NPTL baseline (blocking pread), on the calibrated disk
// model. The NPTL column stops at its 16 K-thread stack budget, as in the
// paper.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"hybrid/internal/bench"
	"hybrid/internal/faults"
)

func main() {
	quick := flag.Bool("quick", false, "reduced read volume (shape only)")
	maxThreads := flag.Int("max-threads", 65536, "largest thread count")
	emitStats := flag.Bool("stats", false, "emit a JSON stats block per hybrid run")
	faultSpec := flag.String("faults", "",
		"deterministic fault plan for the hybrid runs: seed=N,rate=R[,<op>=R]")
	supervise := flag.Bool("supervise", false,
		"run hybrid reader threads under supervision: an exhausted read kills the thread and the supervisor restarts it (pairs with -faults)")
	realtime := flag.Bool("realtime", false,
		"also run the NPTL baseline column; its kernel threads race on the host scheduler, so output is not byte-reproducible")
	flag.Parse()

	cfg := bench.DefaultFig17()
	if *quick {
		cfg = bench.Fig17Quick()
	}
	fcfg, err := faults.ParseSpec(*faultSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fig17disk:", err)
		os.Exit(2)
	}
	cfg.Faults = fcfg
	var counts []int
	for n := 1; n <= *maxThreads; n *= 4 {
		counts = append(counts, n)
	}
	fmt.Println("Figure 17: disk head scheduling (throughput vs working threads)")
	fmt.Printf("file=%dMB total-read=%dMB block=%dB\n",
		cfg.FileBytes>>20, cfg.TotalReadBytes>>20, cfg.BlockBytes)
	if cfg.Faults.Active() {
		fmt.Printf("faults: %s (hybrid runs only)\n", *faultSpec)
	}
	hybrid := bench.Fig17HybridStats
	if *supervise {
		hybrid = bench.Fig17HybridSupervised
		fmt.Println("supervision: on (dead reader threads restart; see supervise.* in -stats)")
	}
	fmt.Println()
	// The NPTL baseline runs kernel threads whose disk-arrival order is
	// host-scheduled, so its column varies run to run; it only prints under
	// -realtime, keeping default output byte-for-byte reproducible.
	nptl := func(n int) float64 { return math.NaN() }
	if *realtime {
		nptl = func(n int) float64 { return bench.Fig17NPTL(cfg, n) }
	}
	pts := make([]bench.Point, 0, len(counts))
	runs := make([]bench.RunStats, 0, len(counts))
	for _, n := range counts {
		mbps, snap := hybrid(cfg, n)
		pts = append(pts, bench.Point{X: n, Hybrid: mbps, NPTL: nptl(n)})
		runs = append(runs, bench.RunStats{
			Figure: "fig17", System: "hybrid", X: n, MBps: mbps, Stats: snap,
		})
	}
	if *realtime {
		bench.PrintSeries(os.Stdout, "threads", pts, "Hybrid (AIO)", "NPTL (pread)")
	} else {
		bench.PrintHybridSeries(os.Stdout, "threads", pts, "Hybrid (AIO)")
	}
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
