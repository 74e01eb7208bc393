// fig21adversarial regenerates Figure 21, the adversarial-robustness
// contest: a fixed population of well-behaved closed-loop clients shares
// a connection-limited server with a fleet of hostile clients (slowloris
// header trickle, idle flood, read-stall, connection churn), and each
// attack runs twice — connection-lifecycle defenses off, then on. The
// attackers alone can pin every connection slot, so with defenses off the
// slot-pinning attacks collapse the good clients' goodput several-fold;
// with the lifecycle deadlines armed it holds at the no-attack
// baseline. All time is virtual: the table is byte-for-byte reproducible
// at any GOMAXPROCS.
package main

import (
	"flag"
	"fmt"

	"hybrid/internal/bench"
)

func main() {
	quick := flag.Bool("quick", false, "smaller populations and a shorter horizon")
	flag.Parse()

	cfg := bench.DefaultFig21()
	if *quick {
		cfg = bench.Fig21Quick()
	}

	fmt.Println("Figure 21: good-client goodput under attack (lifecycle defenses off vs on)")
	fmt.Printf("good=%dx%dreq attackers=%d maxconns=%d files=%dx%dKB horizon=%v (goodput in MB/s of virtual time)\n",
		cfg.GoodClients, cfg.SessionRequests, cfg.Attackers, cfg.MaxConns,
		cfg.Files, cfg.FileBytes>>10, cfg.Horizon)
	fmt.Println()
	fmt.Printf("%-11s %12s %12s %10s %10s %8s %10s\n",
		"attack", "off MB/s", "on MB/s", "off p99", "on p99", "sheds", "recovered")
	var base float64
	for _, mode := range bench.Fig21Modes {
		off := bench.Fig21Run(cfg, mode, false)
		on := bench.Fig21Run(cfg, mode, true)
		if mode == "none" {
			base = off.GoodputMBps
		}
		recovered := "-"
		if base > 0 {
			recovered = fmt.Sprintf("%.1f%%", 100*on.GoodputMBps/base)
		}
		fmt.Printf("%-11s %12.3f %12.3f %9dus %9dus %8d %10s\n",
			mode, off.GoodputMBps, on.GoodputMBps, off.P99Us, on.P99Us,
			on.Sheds(), recovered)
	}
}
