// Package bench contains the harnesses that regenerate the paper's
// evaluation (§5): the thread memory-consumption test, the disk
// head-scheduling test (Figure 17), the FIFO-pipe scalability test
// (Figure 18), and the web-server comparison (Figure 19), each with the
// hybrid runtime and the NPTL baseline side by side.
//
// Each harness returns a series of points; cmd/ binaries print them as
// the rows of the corresponding figure, and bench_test.go exposes them as
// testing.B benchmarks. Disk- and network-bound experiments run on the
// deterministic virtual clock; CPU/memory-bound experiments run on the
// wall clock, as in the paper.
package bench

import (
	"fmt"
	"io"
	"math"
	"time"
)

// Point is one x-position of a figure with the two competing systems'
// measurements. A NaN means the system could not run at that x (the
// paper's NPTL curves stop at 16K threads).
type Point struct {
	X      int     // threads / idle threads / connections
	Hybrid float64 // MB/s
	NPTL   float64 // MB/s
}

// MB is 2^20 bytes, the unit of every figure's y-axis.
const MB = 1 << 20

// PrintSeries renders points as an aligned table.
func PrintSeries(w io.Writer, xLabel string, points []Point, hybridName, nptlName string) {
	fmt.Fprintf(w, "%-12s %14s %14s\n", xLabel, hybridName, nptlName)
	for _, p := range points {
		fmt.Fprintf(w, "%-12d %14s %14s\n", p.X, cell(p.Hybrid), cell(p.NPTL))
	}
}

// PrintHybridSeries renders only the hybrid column. The default figure
// output uses this: the baseline columns run kernel threads whose
// interleaving is host-scheduled (goroutine arrival order at the disk and
// the spawn budget), so they are only printed under the -realtime flag,
// keeping default output byte-for-byte reproducible.
func PrintHybridSeries(w io.Writer, xLabel string, points []Point, hybridName string) {
	fmt.Fprintf(w, "%-12s %14s\n", xLabel, hybridName)
	for _, p := range points {
		fmt.Fprintf(w, "%-12d %14s\n", p.X, cell(p.Hybrid))
	}
}

// mbPerSec is a byte count over an interval, in MB/s; NaN when no time passed
// (nothing ran).
func mbPerSec(bytes uint64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return math.NaN()
	}
	return float64(bytes) / float64(MB) / elapsed.Seconds()
}

func cell(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.3f MB/s", v)
}
