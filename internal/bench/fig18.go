package bench

import (
	"math"
	"sync"
	"time"

	"hybrid/internal/core"
	"hybrid/internal/hio"
	"hybrid/internal/kernel"
	"hybrid/internal/nptl"
	"hybrid/internal/vclock"
)

// Fig18Config parameterizes the FIFO-pipe scalability test: "128 pairs of
// active threads … one thread sends 32KB data to the other thread,
// receives 32KB data from the other thread and repeats this conversation.
// The buffer size of each FIFO pipe is 4KB. In addition … there are many
// idle threads in the program waiting for epoll events on idle FIFO
// pipes." This benchmark is CPU/memory-bound and runs on the wall clock.
type Fig18Config struct {
	// Pairs of active threads. Paper: 128.
	Pairs int
	// MessageBytes per direction per round. Paper: 32 KB.
	MessageBytes int
	// PipeBytes is the FIFO buffer. Paper: 4 KB.
	PipeBytes int
	// Rounds per pair per run (the paper transfers 64 GB per run; scale
	// with this).
	Rounds int
	// NPTLBudget caps baseline thread stacks (512 MB → 16 K threads).
	NPTLBudget int64
	// Workers is the hybrid scheduler's worker count.
	Workers int
}

// DefaultFig18 is a practical configuration (the paper's full 64 GB per
// run is scaled down; throughput is a rate, so volume only affects noise).
func DefaultFig18() Fig18Config {
	return Fig18Config{
		Pairs:        128,
		MessageBytes: 32 * 1024,
		PipeBytes:    4096,
		Rounds:       32,
		NPTLBudget:   512 << 20,
		Workers:      2,
	}
}

// Fig18Quick is reduced for tests.
func Fig18Quick() Fig18Config {
	c := DefaultFig18()
	c.Pairs = 16
	c.Rounds = 8
	return c
}

// totalBytes is the volume counted toward throughput (both directions of
// every pair).
func (c Fig18Config) totalBytes() int64 {
	return int64(c.Pairs) * int64(c.Rounds) * int64(c.MessageBytes) * 2
}

// Fig18Hybrid measures the hybrid runtime with the given number of idle
// threads parked in sys_epoll_wait.
func Fig18Hybrid(cfg Fig18Config, idle int) float64 {
	clk := vclock.NewReal()
	k := kernel.New(clk)
	rt := core.NewRuntime(core.Options{Workers: cfg.Workers, Clock: clk})
	defer rt.Shutdown()
	io := hio.New(rt, k, nil)

	// Idle threads: one per idle pipe, waiting for an event that never
	// comes.
	for i := 0; i < idle; i++ {
		rfd, _ := k.NewPipe(cfg.PipeBytes)
		rt.Spawn(core.Then(io.EpollWait(rfd, kernel.EventRead), core.Skip))
	}

	wg := core.NewWaitGroup(cfg.Pairs * 2)
	done := make(chan struct{})
	var prog core.M[core.Unit] = core.Skip
	for p := 0; p < cfg.Pairs; p++ {
		aToB1, aToB2 := k.NewPipe(cfg.PipeBytes) // r, w
		bToA1, bToA2 := k.NewPipe(cfg.PipeBytes)
		bufA := make([]byte, cfg.MessageBytes)
		bufB := make([]byte, cfg.MessageBytes)
		// Thread A: send then receive; thread B: receive then send — the
		// paper's spelling, each generic wrapper applied once (Seq).
		send := func(fd kernel.FD, p []byte) core.M[core.Unit] { return core.Then(io.SockSend(fd, p), core.Skip) }
		recv := func(fd kernel.FD, p []byte) core.M[core.Unit] { return core.Then(io.SockReadFull(fd, p), core.Skip) }
		threadA := core.Finally(core.RepeatN(cfg.Rounds, core.Seq(send(aToB2, bufA), recv(bToA1, bufA))), wg.Done())
		threadB := core.Finally(core.RepeatN(cfg.Rounds, core.Seq(recv(aToB1, bufB), send(bToA2, bufB))), wg.Done())
		prog = core.Seq(prog, core.Fork(threadA), core.Fork(threadB))
	}
	start := time.Now()
	rt.Spawn(core.Seq(prog, wg.Wait(), core.Do(func() { close(done) })))
	<-done
	return mbPerSec(uint64(cfg.totalBytes()), time.Since(start))
}

// Fig18NPTL measures the baseline: one kernel thread per endpoint with
// blocking pipe I/O, stack-touch cache pollution per switch, and idle
// threads blocked in reads on idle pipes.
func Fig18NPTL(cfg Fig18Config, idle int) float64 {
	clk := vclock.NewReal()
	k := kernel.New(clk)
	rt := nptl.New(k, nil, nptl.Config{MemoryBudget: cfg.NPTLBudget})

	// Idle threads block reading pipes that never fill. They are
	// released at the end by closing the write ends.
	idleWrites := make([]kernel.FD, 0, idle)
	for i := 0; i < idle; i++ {
		rfd, wfd := k.NewPipe(cfg.PipeBytes)
		idleWrites = append(idleWrites, wfd)
		if err := rt.Spawn(func(t *nptl.Thread) {
			buf := make([]byte, 1)
			t.Read(rfd, buf)
		}); err != nil {
			return math.NaN() // over the thread budget: no data point
		}
	}

	var wg sync.WaitGroup
	spawn := func(fn func(t *nptl.Thread)) bool {
		wg.Add(1)
		err := rt.Spawn(func(t *nptl.Thread) {
			defer wg.Done()
			fn(t)
		})
		if err != nil {
			wg.Done()
			return false
		}
		return true
	}

	ok := true
	start := time.Now()
	for p := 0; p < cfg.Pairs && ok; p++ {
		aToB1, aToB2 := k.NewPipe(cfg.PipeBytes)
		bToA1, bToA2 := k.NewPipe(cfg.PipeBytes)
		ok = ok && spawn(func(t *nptl.Thread) {
			buf := make([]byte, cfg.MessageBytes)
			for r := 0; r < cfg.Rounds; r++ {
				t.WriteAll(aToB2, buf)
				t.ReadFull(bToA1, buf)
			}
		})
		ok = ok && spawn(func(t *nptl.Thread) {
			buf := make([]byte, cfg.MessageBytes)
			for r := 0; r < cfg.Rounds; r++ {
				t.ReadFull(aToB1, buf)
				t.WriteAll(bToA2, buf)
			}
		})
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, wfd := range idleWrites {
		k.Close(wfd)
	}
	rt.Wait()
	if !ok {
		return math.NaN()
	}
	return mbPerSec(uint64(cfg.totalBytes()), elapsed)
}

// Fig18 runs both systems across the idle-thread counts.
func Fig18(cfg Fig18Config, idleCounts []int) []Point {
	out := make([]Point, 0, len(idleCounts))
	for _, n := range idleCounts {
		out = append(out, Point{X: n, Hybrid: Fig18Hybrid(cfg, n), NPTL: Fig18NPTL(cfg, n)})
	}
	return out
}
