package bench

import (
	"encoding/json"
	"io"
	"math"

	"hybrid/internal/stats"
)

// RunStats is the machine-readable record of one figure run: which
// figure, which system, the x-position, the headline throughput, and the
// merged metrics snapshot collected at the end of the run. Tools consume
// these blocks to correlate a figure's curve with the scheduler and I/O
// behaviour underneath it (e.g. Figure 17's rising MB/s against
// disk.queue_depth and disk.seek_blocks).
//
// MBps is throughput in *virtual* time — the deterministic model the
// figures are drawn in; it cannot move when only allocation behaviour
// changes.
type RunStats struct {
	Figure string  `json:"figure"`
	System string  `json:"system"`
	X      int     `json:"x"`
	MBps   float64 `json:"mbps"`

	Stats stats.Snapshot `json:"stats,omitempty"`
}

// WriteRunStats emits rs as one indented JSON object followed by a
// newline. A NaN throughput (a system that could not run at this x) is
// written as -1, since JSON has no NaN.
func WriteRunStats(w io.Writer, rs RunStats) error {
	if math.IsNaN(rs.MBps) {
		rs.MBps = -1
	}
	b, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
