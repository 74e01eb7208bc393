// Benchmarks regenerating the paper's evaluation (§5). One benchmark per
// table/figure, plus microbenchmarks and the ablations called out in
// DESIGN.md. Disk- and network-bound figures are measured in
// deterministic virtual time and reported as MB/s via ReportMetric; the
// memory table reports bytes/thread. cmd/fig* print the same series as
// full tables at paper scale.
package hybrid_test

import (
	"fmt"
	"testing"

	"hybrid"
	"hybrid/internal/bench"
	"hybrid/internal/core"
	"hybrid/internal/stm"
)

// --- MEM: §5.1 memory consumption -------------------------------------------

func BenchmarkThreadMemory(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("threads-%d", n), func(b *testing.B) {
			var last bench.MemPoint
			for i := 0; i < b.N; i++ {
				last = bench.MemTest(n)
			}
			b.ReportMetric(last.BytesPerThread, "bytes/thread")
		})
	}
}

// --- Figure 17: disk head scheduling -----------------------------------------

func BenchmarkFig17DiskHeadScheduling(b *testing.B) {
	cfg := bench.Fig17Quick()
	for _, threads := range []int{1, 16, 256, 4096} {
		b.Run(fmt.Sprintf("hybrid-threads-%d", threads), func(b *testing.B) {
			var mbps float64
			for i := 0; i < b.N; i++ {
				mbps, _ = bench.Fig17HybridStats(cfg, threads)
			}
			b.ReportMetric(mbps, "MB/s")
		})
		b.Run(fmt.Sprintf("nptl-threads-%d", threads), func(b *testing.B) {
			var mbps float64
			for i := 0; i < b.N; i++ {
				mbps = bench.Fig17NPTL(cfg, threads)
			}
			b.ReportMetric(mbps, "MB/s")
		})
	}
}

// --- Figure 18: FIFO pipes with idle threads ---------------------------------

func BenchmarkFig18FIFOPipes(b *testing.B) {
	cfg := bench.Fig18Quick()
	for _, idle := range []int{0, 1000, 10000} {
		b.Run(fmt.Sprintf("hybrid-idle-%d", idle), func(b *testing.B) {
			var mbps float64
			for i := 0; i < b.N; i++ {
				mbps = bench.Fig18Hybrid(cfg, idle)
			}
			b.ReportMetric(mbps, "MB/s")
		})
		b.Run(fmt.Sprintf("nptl-idle-%d", idle), func(b *testing.B) {
			var mbps float64
			for i := 0; i < b.N; i++ {
				mbps = bench.Fig18NPTL(cfg, idle)
			}
			b.ReportMetric(mbps, "MB/s")
		})
	}
}

// --- Figure 19: web server under disk-intensive load -------------------------

func BenchmarkFig19WebServer(b *testing.B) {
	cfg := bench.Fig19Quick()
	for _, conns := range []int{1, 64, 512} {
		b.Run(fmt.Sprintf("hybrid-conns-%d", conns), func(b *testing.B) {
			var mbps float64
			for i := 0; i < b.N; i++ {
				mbps, _ = bench.Fig19HybridStats(cfg, conns)
			}
			b.ReportMetric(mbps, "MB/s")
		})
		b.Run(fmt.Sprintf("apache-conns-%d", conns), func(b *testing.B) {
			var mbps float64
			for i := 0; i < b.N; i++ {
				mbps = bench.Fig19Apache(cfg, conns)
			}
			b.ReportMetric(mbps, "MB/s")
		})
	}
}

// CACHED: §5.2's "mostly-cached workloads".
func BenchmarkWebServerCached(b *testing.B) {
	cfg := bench.Fig19Quick()
	cfg.Cached = true
	var mbps float64
	for i := 0; i < b.N; i++ {
		mbps, _ = bench.Fig19HybridStats(cfg, 64)
	}
	b.ReportMetric(mbps, "MB/s")
}

// --- Microbenchmarks ----------------------------------------------------------

// BenchmarkSpawn measures thread creation + completion.
func BenchmarkSpawn(b *testing.B) {
	rt := hybrid.NewRuntime(hybrid.Options{Workers: 1})
	defer rt.Shutdown()
	b.ResetTimer()
	rt.Run(hybrid.ForN(b.N, func(int) hybrid.M[hybrid.Unit] {
		return hybrid.Fork(hybrid.Skip)
	}))
}

// BenchmarkYield measures one scheduler round trip.
func BenchmarkYield(b *testing.B) {
	rt := hybrid.NewRuntime(hybrid.Options{Workers: 1})
	defer rt.Shutdown()
	b.ResetTimer()
	rt.Run(hybrid.ForN(b.N, func(int) hybrid.M[hybrid.Unit] { return hybrid.Yield() }))
}

// BenchmarkBindChain measures raw monadic overhead without scheduling.
func BenchmarkBindChain(b *testing.B) {
	rt := hybrid.NewRuntime(hybrid.Options{Workers: 1})
	defer rt.Shutdown()
	b.ResetTimer()
	rt.Run(hybrid.ForN(b.N, func(int) hybrid.M[hybrid.Unit] {
		return hybrid.Bind(hybrid.Return(1), func(x int) hybrid.M[hybrid.Unit] {
			return hybrid.Map(hybrid.Return(x+1), func(int) hybrid.Unit { return hybrid.Unit{} })
		})
	}))
}

// BenchmarkMutex measures uncontended lock/unlock pairs.
func BenchmarkMutex(b *testing.B) {
	rt := hybrid.NewRuntime(hybrid.Options{Workers: 1})
	defer rt.Shutdown()
	m := hybrid.NewMutex()
	b.ResetTimer()
	rt.Run(hybrid.ForN(b.N, func(int) hybrid.M[hybrid.Unit] {
		return hybrid.Seq(m.Lock(), m.Unlock())
	}))
}

// BenchmarkChan measures send/recv pairs through a buffered channel.
func BenchmarkChan(b *testing.B) {
	rt := hybrid.NewRuntime(hybrid.Options{Workers: 1})
	defer rt.Shutdown()
	ch := hybrid.NewChan[int](64)
	b.ResetTimer()
	rt.Run(hybrid.Seq(
		hybrid.Fork(hybrid.ForN(b.N, func(i int) hybrid.M[hybrid.Unit] { return ch.Send(i) })),
		hybrid.ForN(b.N, func(int) hybrid.M[hybrid.Unit] {
			return hybrid.Bind(ch.Recv(), func(int) hybrid.M[hybrid.Unit] { return hybrid.Skip })
		}),
	))
}

// BenchmarkSTM measures one transactional counter increment.
func BenchmarkSTM(b *testing.B) {
	rt := core.NewRuntime(core.Options{Workers: 1})
	defer rt.Shutdown()
	v := stm.NewTVar(0)
	b.ResetTimer()
	rt.Run(core.ForN(b.N, func(int) core.M[core.Unit] {
		return core.Then(stm.Atomically(func(tx *stm.Tx) core.Unit {
			stm.Write(tx, v, stm.Read(tx, v)+1)
			return core.Unit{}
		}), core.Skip)
	}))
}

// --- Ablations (DESIGN.md) ----------------------------------------------------

// ABL-EXC: cost of an installed (unused) handler frame per call.
func BenchmarkAblationExceptions(b *testing.B) {
	for _, depth := range []int{0, 1, 4, 16} {
		b.Run(fmt.Sprintf("catch-depth-%d", depth), func(b *testing.B) {
			rt := hybrid.NewRuntime(hybrid.Options{Workers: 1})
			defer rt.Shutdown()
			body := func() hybrid.M[hybrid.Unit] {
				m := hybrid.Do(func() {})
				for i := 0; i < depth; i++ {
					m = hybrid.Catch(m, func(error) hybrid.M[hybrid.Unit] { return hybrid.Skip })
				}
				return m
			}()
			b.ResetTimer()
			rt.Run(hybrid.ForN(b.N, func(int) hybrid.M[hybrid.Unit] { return body }))
		})
	}
}

// ABL-BATCH: scheduler batching (§4.2 "executed for a large number of
// steps before switching … to improve locality").
func BenchmarkAblationBatchSize(b *testing.B) {
	for _, batch := range []int{1, 16, 128, 1024} {
		b.Run(fmt.Sprintf("batch-%d", batch), func(b *testing.B) {
			rt := hybrid.NewRuntime(hybrid.Options{Workers: 1, BatchSteps: batch})
			defer rt.Shutdown()
			b.ResetTimer()
			rt.Run(hybrid.ForN(64, func(int) hybrid.M[hybrid.Unit] {
				return hybrid.Fork(hybrid.ForN(b.N/64+1, func(int) hybrid.M[hybrid.Unit] {
					return hybrid.NBIO(func() hybrid.Unit { return hybrid.Unit{} })
				}))
			}))
		})
	}
}

// ABL-ELEVATOR: the same Figure 17 workload on a FCFS disk — isolating
// the elevator as the mechanism behind the figure's rising curve.
func BenchmarkAblationElevator(b *testing.B) {
	cfg := bench.Fig17Quick()
	for _, threads := range []int{1, 256} {
		b.Run(fmt.Sprintf("clook-threads-%d", threads), func(b *testing.B) {
			var mbps float64
			for i := 0; i < b.N; i++ {
				mbps, _ = bench.Fig17HybridStats(cfg, threads)
			}
			b.ReportMetric(mbps, "MB/s")
		})
		b.Run(fmt.Sprintf("fcfs-threads-%d", threads), func(b *testing.B) {
			var mbps float64
			for i := 0; i < b.N; i++ {
				mbps = bench.Fig17HybridFCFS(cfg, threads)
			}
			b.ReportMetric(mbps, "MB/s")
		})
	}
}
