package bench

import (
	"hybrid/internal/core"
	"hybrid/internal/httpd"
	"hybrid/internal/loadgen"
)

// ConnMemPoint is one measurement of per-connection memory: the live heap
// cost of N established server connections, parked versus active.
type ConnMemPoint struct {
	Conns int
	// ParkedBytesPerConn is the cost of an idle keep-alive connection:
	// one served request behind it, the handler parked on the next head,
	// and (lifecycle mode) one armed timer-wheel idle deadline.
	ParkedBytesPerConn float64
	// ActiveBytesPerConn is the cost of a connection mid-response: the
	// peer is not reading, so the handler is blocked in a write with the
	// socket buffer full and a response chunk in flight.
	ActiveBytesPerConn float64
}

// ConnMemTest measures per-connection live heap for parked and active
// connections — the first capacity measurement for the C10M target. Each
// phase builds a fresh lifecycle-enabled site with virtual time frozen (so
// armed wheel deadlines are pinned state, not events), parks conns
// connections in the target state, and measures major-GC live heap
// against the empty-server baseline.
//
// The figure includes both halves of each connection — the kernel-sim
// socket rings plus the client thread — so it measures the whole
// simulated connection. The rings are elastic chunked buffers
// (internal/kernel/pipe.go): logical capacity 64 KB per direction, but
// segments are pooled and released on drain, so a parked keep-alive
// connection holds no ring memory at all and the figure is dominated by
// what remains — the handler's pooled read buffer, the client's drain
// buffer, two monadic threads, the FD table entries, and an armed wheel
// timer. (The old flat rings allocated 2 × 64 KB eagerly at connect and
// put the parked figure at 137.7 KB/conn; elastic rings put it under
// 8 KB, which is what makes the Figure 22 million-connection sweep fit
// in memory.) An active connection still pays for the buffered bytes
// actually in flight: a stalled 256 KB response fills the server's send
// ring to its logical capacity.
func ConnMemTest(conns int) ConnMemPoint {
	return ConnMemPoint{
		Conns:              conns,
		ParkedBytesPerConn: connMemPhase(conns, false),
		ActiveBytesPerConn: connMemPhase(conns, true),
	}
}

func connMemPhase(conns int, active bool) float64 {
	// Parked connections finish one small response; active ones stall
	// inside a response bigger than the socket buffer's logical capacity.
	size := int64(512)
	if active {
		size = 256 * 1024
	}
	// Frozen for the whole phase: connection setup and cache-hit serving
	// need no clock, and the hold keeps every armed lifecycle deadline
	// parked on the wheel instead of firing while the heap is measured.
	s := NewSite(Spec{
		Files: 1, FileBytes: size, Frozen: true,
		Server: fleetServer(1<<20, conns+16),
	})
	defer s.Close()
	s.Warm()

	before := heapAlloc()
	req := keepAliveGet(loadgen.FileName(0))
	s.Park(conns, func(_ int, t httpd.Transport) core.M[core.Unit] {
		if active {
			// Send and never read: the server blocks mid-response.
			return core.Then(t.Write(req), core.Skip)
		}
		// Consume the full response, then idle on the keep-alive
		// connection.
		return core.Then(Get(t, req, make([]byte, 2048)), core.Skip)
	})
	return float64(heapAlloc()-before) / float64(conns)
}
