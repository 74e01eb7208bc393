package bench

import (
	"testing"

	"hybrid/internal/faults"
)

// The overload table's headline claim: at 4× the capacity point, the
// protected server's goodput stays within 20% of its 1× figure and its
// client-observed p99 stays at the 1× level, while the unprotected
// server's tail stretches with the offered load.
func TestFig19OverloadProtectionBoundsTail(t *testing.T) {
	cfg := Fig19Quick()
	const conns = 32

	base := Fig19Overload(cfg, conns, 1, true)
	over := Fig19Overload(cfg, conns, 4, true)
	bare := Fig19Overload(cfg, conns, 4, false)

	if base.Errors != 0 || over.Errors != 0 {
		t.Fatalf("client errors under protection: 1x=%d 4x=%d", base.Errors, over.Errors)
	}
	if over.GoodputMBps < 0.8*base.GoodputMBps {
		t.Fatalf("goodput collapsed under 4x load: %.2f MB/s vs %.2f at 1x",
			over.GoodputMBps, base.GoodputMBps)
	}
	// The histogram's power-of-two buckets make "same bucket" the
	// precise version of "p99 did not grow": allow one bucket of slack.
	if over.P99 > 2*base.P99 {
		t.Fatalf("p99 %v at protected 4x, want <= 2x the 1x p99 %v", over.P99, base.P99)
	}
	if bare.P99 <= over.P99 {
		t.Fatalf("unprotected 4x p99 %v not worse than protected %v — overload regime not reached",
			bare.P99, over.P99)
	}
	// Back-pressure is visible where it should be: refused connects at
	// the shallow backlog, zero at the unprotected server.
	if over.Snapshot.Counter("kernel.backlog_rejects") == 0 {
		t.Fatal("no backlog rejects at 4x under admission control")
	}
	if r := over.Requests; r != bare.Requests {
		t.Fatalf("protected run completed %d requests, unprotected %d — retries lost work",
			r, bare.Requests)
	}
}

// Fault-free, the supervised Figure 17 run does exactly the plain run's
// work: same throughput, zero restarts.
func TestFig17SupervisedMatchesPlainWhenFaultFree(t *testing.T) {
	cfg := Fig17Quick()
	plain, _ := Fig17HybridStats(cfg, 16)
	sup, snap := Fig17HybridSupervised(cfg, 16)
	if sup != plain {
		t.Fatalf("supervised %.6f MB/s != plain %.6f with no faults", sup, plain)
	}
	if r := snap.Counter("supervise.restarts"); r != 0 {
		t.Fatalf("restarts = %d with no faults, want 0", r)
	}
}

// With an aggressive fault plan, some reader threads exhaust their read
// retries; under supervision those deaths become counted restarts and
// the run still completes.
func TestFig17SupervisedRestartsUnderFaults(t *testing.T) {
	cfg := Fig17Quick()
	cfg.Faults = &faults.Config{
		Seed:  5,
		Rates: map[faults.Op]float64{faults.DiskRead: 0.55},
	}
	mbps, snap := Fig17HybridSupervised(cfg, 16)
	if mbps <= 0 {
		t.Fatalf("supervised faulty run reported %.6f MB/s", mbps)
	}
	restarts := snap.Counter("supervise.restarts")
	if restarts == 0 {
		t.Fatal("no supervisor restarts at a 55% disk fault rate; test is vacuous")
	}
	// Give-ups are allowed (the budget is bounded) but must be counted,
	// never leaked as uncaught errors — the run returning at all attests
	// to that, since an uncaught error would leave the WaitGroup short.
	t.Logf("restarts=%d give_ups=%d", restarts, snap.Counter("supervise.give_ups"))
}
