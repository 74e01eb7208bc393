// fig22c1m regenerates Figure 22, the million-connection capacity
// figure: a fleet of parked keep-alive connections — established, one
// request served, then idle with an armed lifecycle deadline — while
// a small background population trickles requests over the same server.
// Per sweep point it reports the live-heap bytes per parked connection
// — next to the NPTL baseline's modelled cost of one 32 KB kernel-thread
// stack per connection — and the background mix's p99 and goodput. The
// claim is the CPC one: at extreme connection counts memory is the
// binding constraint, and with elastic socket buffers (segments released
// on drain) plus a compact TCB, a parked connection costs kilobytes, not
// the 137 KB the flat rings charged — so a million of them fit where the
// NPTL column shows 32 GB of stack reservation (and a real NPTL runtime
// stops admitting threads at its 512 MB budget, four rows of magnitude
// earlier).
//
// The request columns are virtual-time deterministic: byte-identical at
// any GOMAXPROCS. The bytes/conn column reads the Go allocator, which
// is not; -det omits it (and the measurement) so the determinism gate
// can byte-diff two runs.
package main

import (
	"flag"
	"fmt"

	"hybrid/internal/bench"
)

func main() {
	quick := flag.Bool("quick", false, "smaller fleet sweep and background mix")
	det := flag.Bool("det", false, "deterministic output only: skip the host-side memory measurement")
	flag.Parse()

	cfg := bench.DefaultFig22()
	if *quick {
		cfg = bench.Fig22Quick()
	}
	if *det {
		cfg.MeasureMemory = false
	}

	fmt.Println("Figure 22: parked keep-alive fleet vs background request mix")
	fmt.Printf("active=%dx%dreq files=%dx%dKB rtt=%v (goodput in MB/s of virtual time)\n",
		cfg.ActiveClients, cfg.RequestsPerClient, cfg.Files, cfg.FileBytes>>10, cfg.RTT)
	fmt.Println()
	if *det {
		fmt.Printf("%-10s %10s %8s %10s %12s\n",
			"conns", "requests", "errors", "p99", "MB/s")
	} else {
		fmt.Printf("%-10s %16s %14s %12s %10s %8s %10s %12s\n",
			"conns", "parked B/conn", "nptl B/conn", "nptl fleet", "requests", "errors", "p99", "MB/s")
	}
	for _, n := range cfg.Conns {
		p := bench.Fig22Run(cfg, n)
		if *det {
			fmt.Printf("%-10d %10d %8d %8dus %12.3f\n",
				p.Conns, p.Requests, p.Errors, p.P99Us, p.GoodputMBps)
		} else {
			fmt.Printf("%-10d %16.1f %14.0f %11.2fGB %10d %8d %8dus %12.3f\n",
				p.Conns, p.ParkedBytesPerConn, p.NPTLModelBytesPerConn,
				p.NPTLModelBytesPerConn*float64(p.Conns)/float64(1<<30),
				p.Requests, p.Errors, p.P99Us, p.GoodputMBps)
		}
	}
}
