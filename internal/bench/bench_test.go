package bench

import (
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// The harness tests verify the *shape* of each figure at reduced volume:
// who wins, what rises, and where the baseline hits its wall.

func TestFig17ThroughputRisesWithThreads(t *testing.T) {
	cfg := Fig17Quick()
	t1, _ := Fig17HybridStats(cfg, 1)
	t64, _ := Fig17HybridStats(cfg, 64)
	if !(t64 > t1) {
		t.Fatalf("hybrid disk throughput did not rise with threads: 1→%.3f 64→%.3f", t1, t64)
	}
	// Calibration: the paper's band is ~0.52-0.68 MB/s.
	if t1 < 0.3 || t1 > 0.9 {
		t.Errorf("1-thread throughput %.3f MB/s outside calibration band", t1)
	}
}

// medianPairRatio judges a wall-clock comparison whose two sides run back
// to back: one pair is at the mercy of whatever else the machine runs
// during either half — other packages' tests, under `go test ./...` — so
// it takes five alternating pairs and returns the median of their a/b
// ratios (and all five, sorted, for the failure message). The ratio is
// taken within a pair: a machine that is busy for a second and idle for
// the next spoils the one pair that straddles the change, where the ratio
// of the two medians can land on a busy half over an idle one.
func medianPairRatio(t *testing.T, pair func() (a, b float64)) (float64, []float64) {
	t.Helper()
	ratios := make([]float64, 5)
	for i := range ratios {
		a, b := pair()
		if !(a > 0 && b > 0) { // also catches NaN
			t.Fatalf("throughputs: %f %f", a, b)
		}
		ratios[i] = a / b
	}
	sort.Float64s(ratios)
	return ratios[len(ratios)/2], ratios
}

func TestFig17NPTLComparable(t *testing.T) {
	cfg := Fig17Quick()
	r, all := medianPairRatio(t, func() (float64, float64) {
		h, _ := Fig17HybridStats(cfg, 64)
		return h, Fig17NPTL(cfg, 64)
	})
	// The paper: comparable, hybrid slightly ahead at high concurrency.
	if r < 1 {
		t.Fatalf("hybrid behind NPTL at 64 threads: median hybrid/NPTL ratio %.3f of %.3f", r, all)
	}
	if r > 1/0.8 {
		t.Fatalf("NPTL implausibly far behind hybrid: median hybrid/NPTL ratio %.3f of %.3f", r, all)
	}
}

func TestFig17NPTLWallAt16K(t *testing.T) {
	cfg := Fig17Quick()
	cfg.NPTLBudget = 64 * 32 * 1024 // 64 threads worth of stacks
	if v := Fig17NPTL(cfg, 64); math.IsNaN(v) {
		t.Fatal("NPTL failed at its exact budget")
	}
	if v := Fig17NPTL(cfg, 65); !math.IsNaN(v) {
		t.Fatalf("NPTL exceeded its stack budget: %.3f", v)
	}
	// The paper's budget: 65,536 threads of 32 KB do not fit in 512 MB,
	// even though at this size most of them have no read to do and would
	// exit at once if they ran before the spawn loop ends.
	if v := Fig17NPTL(Fig17Quick(), 65536); !math.IsNaN(v) {
		t.Fatalf("NPTL ran 65536 threads in 512 MB: %.3f", v)
	}
}

// The baseline's kernel threads take turns on the clock's event loop, so
// its columns are as reproducible as the hybrid's on any number of host
// CPUs: the same bits, run after run.
func TestBaselineColumnsReproducible(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, c := range []struct {
		name string
		run  func() float64
	}{
		{"Fig17NPTL", func() float64 { return Fig17NPTL(Fig17Quick(), 64) }},
		{"Fig19Apache", func() float64 { return Fig19Apache(Fig19Quick(), 64) }},
	} {
		first := c.run()
		for i := 0; i < 2; i++ {
			if got := c.run(); math.Float64bits(got) != math.Float64bits(first) {
				t.Fatalf("%s at 64 not reproducible at GOMAXPROCS=4: %.9f vs %.9f", c.name, first, got)
			}
		}
	}
}

func TestFig18HybridFlatUnderIdleLoad(t *testing.T) {
	cfg := Fig18Quick()
	// The quick shape finishes in a few milliseconds, which is inside
	// scheduler noise for a wall-clock ratio; lengthen the run so a
	// sample (128 MB, about 0.1 s) measures throughput, not jitter.
	cfg.Rounds *= 16
	r, all := medianPairRatio(t, func() (float64, float64) {
		return Fig18Hybrid(cfg, 2000), Fig18Hybrid(cfg, 0)
	})
	// Idle threads must be near-free: allow 40% noise on a small run.
	if r < 0.6 {
		t.Fatalf("2000 idle threads collapsed throughput: median loaded/base ratio %.2f of %.2f", r, all)
	}
}

func TestFig18NPTLRunsAndIsSlower(t *testing.T) {
	cfg := Fig18Quick()
	r, all := medianPairRatio(t, func() (float64, float64) {
		return Fig18Hybrid(cfg, 100), Fig18NPTL(cfg, 100)
	})
	// The paper reports the hybrid ~30% ahead; require it at least not
	// to lose by much on a small run.
	if r < 0.7 {
		t.Fatalf("hybrid far behind NPTL: median hybrid/NPTL ratio %.2f of %.2f", r, all)
	}
}

func TestFig18NPTLBudgetWall(t *testing.T) {
	cfg := Fig18Quick()
	cfg.NPTLBudget = 64 * 32 * 1024
	if v := Fig18NPTL(cfg, 1000); !math.IsNaN(v) {
		t.Fatalf("NPTL ran with 1000 idle threads on a 64-thread budget: %f", v)
	}
}

func TestFig19ThroughputRisesWithConnections(t *testing.T) {
	cfg := Fig19Quick()
	t1, _ := Fig19HybridStats(cfg, 1)
	t64, _ := Fig19HybridStats(cfg, 64)
	if !(t64 > t1) {
		t.Fatalf("web throughput did not rise: 1 conn %.3f, 64 conns %.3f MB/s", t1, t64)
	}
}

func TestFig19HybridBeatsApacheAtHighConcurrency(t *testing.T) {
	cfg := Fig19Quick()
	h, _ := Fig19HybridStats(cfg, 64)
	a := Fig19Apache(cfg, 64)
	if math.IsNaN(a) || a <= 0 {
		t.Fatalf("apache throughput = %f", a)
	}
	if !(h >= a) {
		t.Fatalf("hybrid %.3f < apache-like %.3f at 64 conns", h, a)
	}
}

func TestFig19CachedWorkloadFaster(t *testing.T) {
	cfg := Fig19Quick()
	cold, _ := Fig19HybridStats(cfg, 16)
	cfg.Cached = true
	warm, _ := Fig19HybridStats(cfg, 16)
	if !(warm > cold*2) {
		t.Fatalf("cached workload %.3f not clearly faster than disk-bound %.3f", warm, cold)
	}
}

// A virtual-clock run is byte-reproducible under real parallelism: its
// one worker is the clock's event loop, so no host-scheduled actor is
// left in the virtual domain — readiness resumes dispatch synchronously,
// timers fire in (when, seq) order on the worker. The same property
// `make determinism` checks end to end on the figure CLIs.
func TestFig19HybridDeterministicAtGOMAXPROCS4(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cfg := Fig19Quick()
	cfg.TotalRequests = 256
	cfg.Cached = true
	a, _ := Fig19HybridStats(cfg, 16)
	b, _ := Fig19HybridStats(cfg, 16)
	if a != b {
		t.Fatalf("virtual throughput not reproducible at GOMAXPROCS=4: %.9f vs %.9f", a, b)
	}
}

func TestMemTestPerThreadSmall(t *testing.T) {
	p := MemTest(100_000)
	if p.BytesPerThread <= 0 {
		t.Fatalf("bytes/thread = %f", p.BytesPerThread)
	}
	// The paper reports 48 bytes in Haskell; Go closures and the TCB are
	// heavier. Today's reading is about 218 B (227 under -race), so 248
	// fails a second per-thread stack in the TCB (250 B); ROADMAP item 21
	// shrinks the thread and lowers this bound with it.
	if p.BytesPerThread > 248 {
		t.Fatalf("bytes/thread = %.1f, want ≤ 248", p.BytesPerThread)
	}
}

func TestPrintSeries(t *testing.T) {
	var sb strings.Builder
	PrintSeries(&sb, "threads", []Point{
		{X: 1, Hybrid: 0.5, NPTL: 0.4},
		{X: 100000, Hybrid: 0.7, NPTL: math.NaN()},
	}, "Hybrid", "NPTL")
	out := sb.String()
	if !strings.Contains(out, "threads") || !strings.Contains(out, "0.500 MB/s") {
		t.Fatalf("output:\n%s", out)
	}
	if !strings.Contains(out, "-") {
		t.Fatal("NaN not rendered as absent")
	}
}

func TestFig17Series(t *testing.T) {
	cfg := Fig17Quick()
	for _, n := range []int{1, 16} {
		h, _ := Fig17HybridStats(cfg, n)
		if nptl := Fig17NPTL(cfg, n); !(h > 0 && nptl > 0) { // also catches NaN
			t.Fatalf("%d threads: hybrid %f, NPTL %f MB/s", n, h, nptl)
		}
	}
}

// ABL-ELEVATOR: concurrency without the elevator buys nothing — the
// FCFS-disk ablation stays flat while C-LOOK rises.
func TestFig17ElevatorAblation(t *testing.T) {
	cfg := Fig17Quick()
	clook, _ := Fig17HybridStats(cfg, 256)
	fcfs := Fig17HybridFCFS(cfg, 256)
	if !(clook > fcfs*1.1) {
		t.Fatalf("elevator advantage missing at depth 256: C-LOOK %.3f vs FCFS %.3f", clook, fcfs)
	}
	fcfs1 := Fig17HybridFCFS(cfg, 1)
	if fcfs > fcfs1*1.1 {
		t.Fatalf("FCFS improved with concurrency (%.3f -> %.3f); it should stay flat", fcfs1, fcfs)
	}
}
