package bench

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"hybrid/internal/core"
	"hybrid/internal/disk"
	"hybrid/internal/faults"
	"hybrid/internal/kernel"
	"hybrid/internal/nptl"
	"hybrid/internal/stats"
	"hybrid/internal/vclock"
)

// Fig17Config parameterizes the disk head-scheduling test: "each thread
// randomly reads a 4KB block from a 1GB file opened using O_DIRECT
// without caching. Each test reads a total of 512MB."
type Fig17Config struct {
	// FileBytes is the file size. Paper: 1 GB.
	FileBytes int64
	// TotalReadBytes per run. Paper: 512 MB.
	TotalReadBytes int64
	// BlockBytes per read. Paper: 4 KB.
	BlockBytes int
	// NPTLBudget caps baseline stack memory (paper machine: 512 MB →
	// 16 K threads at 32 KB).
	NPTLBudget int64
	// Seed for the offset streams.
	Seed uint64
	// Faults, when active, attaches a deterministic fault injector to
	// the kernel and disk of the hybrid run; reads then get bounded
	// retries, and a block whose retries are exhausted is skipped. Nil
	// or inactive leaves the run byte-for-byte identical to no faults.
	Faults *faults.Config
}

// DefaultFig17 is the paper's configuration.
func DefaultFig17() Fig17Config {
	return Fig17Config{
		FileBytes:      1 << 30,
		TotalReadBytes: 512 << 20,
		BlockBytes:     4096,
		NPTLBudget:     512 << 20,
		Seed:           1,
	}
}

// scaled shrinks the experiment for quick runs, preserving shape.
func (c Fig17Config) scaled(factor int64) Fig17Config {
	c.TotalReadBytes /= factor
	if c.TotalReadBytes < int64(c.BlockBytes)*64 {
		c.TotalReadBytes = int64(c.BlockBytes) * 64
	}
	return c
}

// Fig17Quick is a reduced-volume configuration for tests and testing.B.
func Fig17Quick() Fig17Config { return DefaultFig17().scaled(256) }

// offsets produces the deterministic random block offsets for a thread.
func fig17Offsets(cfg Fig17Config, thread int, reads int) []int64 {
	rng := cfg.Seed ^ (uint64(thread)+1)*0x9E3779B97F4A7C15
	out := make([]int64, reads)
	blocks := cfg.FileBytes / int64(cfg.BlockBytes)
	for i := range out {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		out[i] = int64(rng%uint64(blocks)) * int64(cfg.BlockBytes)
	}
	return out
}

// Fig17HybridStats measures the hybrid runtime: threads monadic, reads
// via sys_aio_read, disk elevator shared. It returns MB/s of virtual time
// and the merged metrics snapshot (sched.*, kernel.*, disk.*) taken at the
// end of the run.
func Fig17HybridStats(cfg Fig17Config, threads int) (float64, stats.Snapshot) {
	return fig17Stats(cfg, threads, disk.CLOOK, false)
}

// Fig17HybridSupervised is the robustness variant: the same workload on
// a panic-trapping runtime, each reader thread under core.Supervise.
// Where the plain run skips a block whose retries are exhausted, the
// supervised run lets the failure kill the thread and the supervisor
// restart it (bounded, with backoff) — the snapshot's supervise.restarts
// and supervise.give_ups count the recoveries. Fault-free, the two
// variants do identical work.
func Fig17HybridSupervised(cfg Fig17Config, threads int) (float64, stats.Snapshot) {
	return fig17Stats(cfg, threads, disk.CLOOK, true)
}

func fig17Stats(cfg Fig17Config, threads int, sched disk.Scheduler, supervised bool) (float64, stats.Snapshot) {
	b := newSubstrate(Spec{Faults: cfg.Faults}, sched, supervised)
	defer b.Close()
	f, err := b.FS.Create("big", cfg.FileBytes, false)
	if err != nil {
		panic(err)
	}
	var sup *superviseStats
	if supervised {
		sup = newSuperviseStats()
	}
	mbps := fig17Run(cfg, threads, b, f, sup)
	// The run's end is signalled from inside the last thread's trace; the
	// worker is still retiring that thread when the signal arrives, so
	// quiesce before snapshotting or the completion counters race.
	b.RT.WaitIdle()
	snap := b.Snapshot()
	if sup != nil {
		snap.Merge("supervise", sup.reg.Snapshot())
	}
	return mbps, snap
}

// superviseStats counts the supervisor's restart decisions across the
// run's threads.
type superviseStats struct {
	restarts atomic.Uint64
	giveUps  atomic.Uint64
	reg      *stats.Registry
}

func newSuperviseStats() *superviseStats {
	s := &superviseStats{reg: stats.NewRegistry()}
	s.reg.CounterFunc("restarts", s.restarts.Load)
	s.reg.CounterFunc("give_ups", s.giveUps.Load)
	return s
}

// fig17Run drives the monadic read workload and reports MB/s. With an
// injector attached, each read gets bounded retries with backoff; a
// block the disk refuses to deliver is skipped so the run completes —
// unless sup is non-nil, in which case the exhausted failure kills the
// thread and its supervisor restarts it from the top of its read list.
func fig17Run(cfg Fig17Config, threads int, b *Substrate, f *kernel.File, sup *superviseStats) float64 {
	clk, io, in := b.Clk, b.IO, b.Faults
	totalReads := int(cfg.TotalReadBytes / int64(cfg.BlockBytes))
	perThread, extra := totalReads/threads, totalReads%threads

	var start vclock.Time
	done := make(chan vclock.Time, 1)
	wg := core.NewWaitGroup(threads)
	prog := core.Seq(
		core.Do(func() { start = clk.Now() }),
		core.ForN(threads, func(ti int) core.M[core.Unit] {
			reads := perThread
			if ti < extra {
				reads++
			}
			offs := fig17Offsets(cfg, ti, reads)
			buf := make([]byte, cfg.BlockBytes)
			body := core.ForN(reads, func(i int) core.M[core.Unit] {
				read := io.AIORead(f, offs[i], buf)
				if in != nil {
					read = core.Retry(clk, core.Backoff{
						Attempts: 4,
						Base:     100 * time.Microsecond,
						Factor:   2,
					}, read)
					if sup == nil {
						// Plain degradation: skip the block, keep going.
						read = core.Catch(read, func(error) core.M[int] { return core.Return(0) })
					}
				}
				return core.Bind(read, func(int) core.M[core.Unit] {
					return core.Skip
				})
			})
			if sup != nil {
				// Supervised degradation: a dead thread restarts from the
				// top of its read list, a few times, with backoff.
				body = core.Supervise(clk, core.RestartPolicy{
					MaxRestarts: 3,
					Backoff:     core.Backoff{Base: 200 * time.Microsecond, Factor: 2},
					OnRestart:   func(int, error) { sup.restarts.Add(1) },
					OnGiveUp:    func(error) { sup.giveUps.Add(1) },
				}, body)
			}
			return core.Fork(core.Finally(body, wg.Done()))
		}),
		wg.Wait(),
		core.Do(func() { done <- clk.Now() }),
	)
	b.RT.Spawn(prog)
	end := <-done
	return mbPerSec(uint64(cfg.TotalReadBytes), time.Duration(end-start))
}

// Fig17NPTL measures the baseline: one kernel thread per concurrent read,
// blocking pread, 32 KB stacks under the memory budget. Returns MB/s or
// NaN when the thread count cannot be spawned (the paper's 16 K wall).
func Fig17NPTL(cfg Fig17Config, threads int) float64 {
	clk := vclock.NewVirtual()
	k := kernel.New(clk)
	fs := kernel.NewFS(disk.New(clk, disk.BenchGeometry()))
	f, err := fs.Create("big", cfg.FileBytes, false)
	if err != nil {
		panic(err)
	}
	rt := nptl.New(k, fs, nptl.Config{MemoryBudget: cfg.NPTLBudget, StackTouch: -1})

	totalReads := int(cfg.TotalReadBytes / int64(cfg.BlockBytes))
	perThread, extra := totalReads/threads, totalReads%threads

	start := clk.Now()
	var spawnFailed bool
	var mu sync.Mutex
	// Freeze virtual time for the whole spawn loop. Without this, threads
	// spawned early could run to completion (their reads finishing on the
	// advancing clock) and release stack budget before the loop ends, so
	// whether a given count fit the budget depended on the host scheduler
	// — the spawn-budget race. With the clock held, no disk completion
	// fires until every thread is spawned, making the budget verdict a
	// pure function of the thread count.
	clk.Enter()
	for ti := 0; ti < threads; ti++ {
		reads := perThread
		if ti < extra {
			reads++
		}
		offs := fig17Offsets(cfg, ti, reads)
		err := rt.Spawn(func(t *nptl.Thread) {
			buf := make([]byte, cfg.BlockBytes)
			for i := 0; i < reads; i++ {
				if _, err := t.Pread(f, buf, offs[i]); err != nil {
					mu.Lock()
					spawnFailed = true
					mu.Unlock()
					return
				}
			}
		})
		if err != nil {
			spawnFailed = true
			break
		}
	}
	clk.Exit()
	rt.Wait()
	if spawnFailed {
		return math.NaN()
	}
	return mbPerSec(uint64(cfg.TotalReadBytes), time.Duration(clk.Now()-start))
}

// Fig17HybridFCFS is the ablation run: the same hybrid workload on a disk
// that services requests in arrival order. The gap between this and
// Fig17HybridStats isolates the elevator as the mechanism behind the figure.
func Fig17HybridFCFS(cfg Fig17Config, threads int) float64 {
	mbps, _ := fig17Stats(cfg, threads, disk.FCFS, false)
	return mbps
}
