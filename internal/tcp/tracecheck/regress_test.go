package tracecheck

import (
	"testing"
	"time"

	"hybrid/internal/stats"
)

// renoPin is one pinned observation of the legacy Reno state machine: the
// client's recovery-relevant counters and the exact virtual finish time
// (which includes the 2*MSL TIME_WAIT drain, so it is sensitive to every
// timer the connection ever armed).
type renoPin struct {
	scenario        string
	retransmits     uint64
	fastRetransmits uint64
	rtoExpiries     uint64
	dupAcksIn       uint64
	segsOut         uint64
	serverOOO       uint64
	serverBytesIn   uint64 // raw wire payload: exceeds the transfer when duplicates arrive
	elapsed         time.Duration
}

// TestRenoBehaviorPinned pins the legacy (SACK off, Reno) recovery
// behavior to exact counter values and virtual finish times under seeded
// single-drop, burst-drop, and reorder scenarios. These numbers were
// recorded from the pre-SACK stack; any refactor of the congestion or
// retransmission machinery must reproduce them exactly — the golden traces
// check the wire, this checks the bookkeeping and the clock.
func TestRenoBehaviorPinned(t *testing.T) {
	pins := []renoPin{
		{
			scenario:        "reno-single-drop",
			retransmits:     0,
			fastRetransmits: 1,
			rtoExpiries:     0,
			dupAcksIn:       6,
			segsOut:         80,
			serverOOO:       6,
			serverBytesIn:   65536,
			elapsed:         time.Minute + 70063200*time.Nanosecond,
		},
		{
			scenario:        "reno-burst-drop",
			retransmits:     2,
			fastRetransmits: 1,
			rtoExpiries:     2,
			dupAcksIn:       8,
			segsOut:         68,
			serverOOO:       8,
			serverBytesIn:   65536,
			elapsed:         time.Minute + 232324800*time.Nanosecond,
		},
		{
			scenario:        "reno-rto-backoff",
			retransmits:     2,
			fastRetransmits: 0,
			rtoExpiries:     2,
			dupAcksIn:       1,
			segsOut:         8,
			serverOOO:       0,
			serverBytesIn:   2048,
			elapsed:         time.Minute + 163778400*time.Nanosecond,
		},
		{
			// Reordering provokes a spurious fast retransmit: the
			// duplicated segment arrives twice, so the server's raw
			// BytesIn exceeds the 32 KB transfer by one MSS.
			scenario:        "reno-reorder",
			retransmits:     0,
			fastRetransmits: 1,
			rtoExpiries:     0,
			dupAcksIn:       8,
			segsOut:         31,
			serverOOO:       11,
			serverBytesIn:   34228,
			elapsed:         time.Minute + 69828740*time.Nanosecond,
		},
	}
	byName := make(map[string]Scenario)
	for _, sc := range scenarios() {
		byName[sc.Name] = sc
	}
	for _, pin := range pins {
		pin := pin
		t.Run(pin.scenario, func(t *testing.T) {
			sc, ok := byName[pin.scenario]
			if !ok {
				t.Fatalf("no scenario named %q", pin.scenario)
			}
			r, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			c := r.Client
			check := func(side string, s stats.Snapshot, name string, want uint64) {
				if got := uint64(s.Counter(name)); got != want {
					t.Errorf("%s.%s = %d, want %d", side, name, got, want)
				}
			}
			check("client", c, "retransmits", pin.retransmits)
			check("client", c, "fast_retransmits", pin.fastRetransmits)
			check("client", c, "rto_expiries", pin.rtoExpiries)
			check("client", c, "dup_acks_in", pin.dupAcksIn)
			check("client", c, "segs_out", pin.segsOut)
			check("client", c, "bytes_out", uint64(sc.SendBytes))
			check("server", r.Server, "out_of_order_in", pin.serverOOO)
			check("server", r.Server, "bytes_in", pin.serverBytesIn)
			if r.Elapsed != pin.elapsed {
				t.Errorf("virtual finish time = %v, want %v", r.Elapsed, pin.elapsed)
			}
		})
	}
}
