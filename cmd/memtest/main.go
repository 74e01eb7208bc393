// memtest reproduces the paper's §5.1 memory-consumption experiment:
// launch millions of monadic threads and measure live heap per thread
// after garbage collection. The paper runs ten million threads at 48
// bytes each on a 2 GB machine; pass -threads to choose the scale.
//
// Pass -conns to additionally measure bytes per established server
// connection — parked (idle keep-alive, handler waiting on the next
// head with an armed lifecycle deadline) versus active (blocked
// mid-response against a peer that stopped reading) — the first
// capacity measurement for the C10M target. Each figure covers the
// whole simulated connection: both socket ring buffers plus the client
// and handler threads.
//
// Pass -budget to turn the parked measurement into a gate: the process
// exits non-zero when parked bytes/conn exceeds the budget. CI runs
// this as a blocking leg so a change that re-eagers buffer allocation
// (the old flat rings cost 137.7 KB/conn; the elastic rings release
// every segment at park) fails the build rather than the next capacity
// experiment.
package main

import (
	"flag"
	"fmt"
	"os"

	"hybrid/internal/bench"
)

func main() {
	threads := flag.Int("threads", 1_000_000, "number of monadic threads to park")
	sweep := flag.Bool("sweep", false, "sweep 10k/100k/1M/10M instead of a single point")
	conns := flag.Int("conns", 0, "also measure bytes/connection for this many parked and active server connections")
	budget := flag.Float64("budget", 0, "fail (exit 1) if parked bytes/conn exceeds this budget (0 = no gate)")
	flag.Parse()

	counts := []int{*threads}
	if *sweep {
		counts = []int{10_000, 100_000, 1_000_000, 10_000_000}
	}
	fmt.Println("Memory consumption of parked monadic threads (paper §5.1;")
	fmt.Println("the paper measures 48 bytes/thread for 10M Haskell threads)")
	fmt.Printf("%-12s %16s %14s\n", "threads", "bytes/thread", "total")
	for _, n := range counts {
		p := bench.MemTest(n)
		fmt.Printf("%-12d %16.1f %11.1f MB\n",
			p.Threads, p.BytesPerThread, float64(p.TotalBytes)/(1<<20))
	}
	if *conns > 0 {
		fmt.Println()
		fmt.Println("Memory per established server connection (elastic rings release")
		fmt.Println("all buffer segments at park; threads, timers, and the handler's")
		fmt.Println("pooled read buffer are what remains)")
		p := bench.ConnMemTest(*conns)
		fmt.Printf("%-12s %16s %16s\n", "conns", "parked B/conn", "active B/conn")
		fmt.Printf("%-12d %16.1f %16.1f\n", p.Conns, p.ParkedBytesPerConn, p.ActiveBytesPerConn)
		if *budget > 0 && p.ParkedBytesPerConn > *budget {
			fmt.Printf("FAIL: parked %.1f B/conn exceeds budget %.1f B/conn\n",
				p.ParkedBytesPerConn, *budget)
			os.Exit(1)
		}
		if *budget > 0 {
			fmt.Printf("OK: parked %.1f B/conn within budget %.1f B/conn\n",
				p.ParkedBytesPerConn, *budget)
		}
	}
	os.Exit(0)
}
