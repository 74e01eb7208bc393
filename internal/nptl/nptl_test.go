package nptl

import (
	"bytes"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hybrid/internal/disk"
	"hybrid/internal/kernel"
	"hybrid/internal/vclock"
)

func newRig(clk vclock.Clock, cfg Config) (*Runtime, *kernel.Kernel, *kernel.FS) {
	if clk == nil {
		clk = vclock.NewReal()
	}
	k := kernel.New(clk)
	fs := kernel.NewFS(disk.New(clk, disk.DefaultGeometry()))
	return New(k, fs, cfg), k, fs
}

func TestSpawnAndWait(t *testing.T) {
	r, _, _ := newRig(nil, Config{})
	var ran atomic.Bool
	if err := r.Spawn(func(*Thread) { ran.Store(true) }); err != nil {
		t.Fatal(err)
	}
	r.Wait()
	if !ran.Load() {
		t.Fatal("thread did not run")
	}
	if r.threads.Load() != 0 || r.StackMemory() != 0 {
		t.Fatalf("leaked: threads=%d stack=%d", r.threads.Load(), r.StackMemory())
	}
}

func TestMemoryBudgetCapsThreads(t *testing.T) {
	// The paper's configuration: 32 KB stacks in 512 MB caps NPTL at 16 K
	// threads. Use a scaled-down budget for speed.
	r, _, _ := newRig(nil, Config{MemoryBudget: stackSize * 100})
	release := make(chan struct{})
	spawned := 0
	for {
		err := r.Spawn(func(*Thread) { <-release })
		if err != nil {
			if !errors.Is(err, ErrNoMemory) {
				t.Fatalf("unexpected spawn error: %v", err)
			}
			break
		}
		spawned++
		if spawned > 1000 {
			t.Fatal("budget never enforced")
		}
	}
	if spawned != 100 {
		t.Fatalf("spawned %d threads, want 100", spawned)
	}
	close(release)
	r.Wait()
}

func TestBlockingPipeReadWrite(t *testing.T) {
	r, k, _ := newRig(nil, Config{MemoryBudget: -1})
	rfd, wfd := k.NewPipe(64)
	payload := make([]byte, 16*1024)
	for i := range payload {
		payload[i] = byte(i)
	}
	var got []byte
	var readErr error
	r.Spawn(func(t *Thread) {
		buf := make([]byte, 4096)
		for {
			n, err := t.Read(rfd, buf)
			if err != nil {
				readErr = err
				return
			}
			if n == 0 {
				return
			}
			got = append(got, buf[:n]...)
		}
	})
	r.Spawn(func(t *Thread) {
		if err := t.WriteAll(wfd, payload); err != nil {
			readErr = err
		}
		t.Close(wfd)
	})
	r.Wait()
	if readErr != nil {
		t.Fatal(readErr)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("got %d bytes, want %d", len(got), len(payload))
	}
}

func TestAcceptConnect(t *testing.T) {
	r, k, _ := newRig(nil, Config{MemoryBudget: -1})
	lfd, err := k.Listen("srv:1", 4)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := k.Connect("srv:1")
	if err != nil {
		t.Fatal(err)
	}
	var reply string
	r.Spawn(func(t *Thread) {
		conn, err := t.Accept(lfd)
		if err != nil {
			return
		}
		buf := make([]byte, 64)
		n, _ := t.Read(conn, buf)
		t.WriteAll(conn, bytes.ToUpper(buf[:n]))
		t.Close(conn)
	})
	r.Spawn(func(t *Thread) {
		t.WriteAll(fd, []byte("ping"))
		buf := make([]byte, 64)
		n, _ := t.ReadFull(fd, buf[:4])
		reply = string(buf[:n])
		t.Close(fd)
	})
	r.Wait()
	if reply != "PING" {
		t.Fatalf("reply = %q", reply)
	}
}

func TestPreadVirtualTimeAndSwitchCost(t *testing.T) {
	clk := vclock.NewVirtual()
	r, _, fs := newRig(clk, Config{MemoryBudget: -1})
	f, err := fs.Create("data", 1<<20, false)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	r.Spawn(func(t *Thread) {
		n, _ = t.Pread(f, make([]byte, 4096), 4096)
	})
	r.Wait()
	if n != 4096 {
		t.Fatalf("Pread = %d", n)
	}
	base := disk.DefaultGeometry().ServiceTime(0, 1, 1)
	got := time.Duration(clk.Now())
	if got != base+switchCost {
		t.Fatalf("virtual time = %v, want service %v + %v switch cost", got, base, switchCost)
	}
}

func TestManyThreadsConcurrentPreadUseElevator(t *testing.T) {
	clk := vclock.NewVirtual()
	r, _, fs := newRig(clk, Config{MemoryBudget: -1})
	f, _ := fs.Create("big", 1<<30, false)
	const threads = 32
	var completed atomic.Int64
	// Every thread must issue its read before any completes. Threads take
	// turns, so without the hold an unbound clock runs each one to
	// completion inside its own Spawn.
	clk.Enter()
	for i := 0; i < threads; i++ {
		i := i
		r.Spawn(func(t *Thread) {
			off := (int64(i*2654435761) % (1 << 29)) &^ 4095
			if off < 0 {
				off = -off
			}
			if n, err := t.Pread(f, make([]byte, 4096), off); err == nil && n == 4096 {
				completed.Add(1)
			}
		})
	}
	clk.Exit()
	r.Wait()
	if completed.Load() != threads {
		t.Fatalf("completed %d of %d", completed.Load(), threads)
	}
	// Depth is sampled at dispatch, the request dispatched included.
	if q := fs.Disk().Metrics().Snapshot()["queue_depth"]; q.Max < 2 {
		t.Fatalf("requests never queued concurrently (max queue depth %d)", q.Max)
	}
}

// On a virtual clock the threads take turns: between two blocking calls a
// thread runs alone, however many are runnable and however many host CPUs
// there are.
func TestVirtualThreadsRunOneAtATime(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	clk := vclock.NewVirtual()
	r, _, fs := newRig(clk, Config{MemoryBudget: -1})
	f, _ := fs.Create("f", 1<<20, false)
	var running atomic.Int64
	var overlap atomic.Bool
	clk.Enter()
	for i := 0; i < 16; i++ {
		r.Spawn(func(t *Thread) {
			buf := make([]byte, 512)
			for round := 0; round < 8; round++ {
				running.Add(1)
				for j := 0; j < 50; j++ {
					if running.Load() > 1 {
						overlap.Store(true)
					}
					runtime.Gosched()
				}
				running.Add(-1)
				t.Pread(f, buf, int64(i*8+round)*4096)
			}
		})
	}
	clk.Exit()
	r.Wait()
	if overlap.Load() {
		t.Fatal("two threads ran at once between blocks")
	}
}

// Threads whose wakes fall at the same instant run in the order the wakes
// were armed, here spawn order: each wake is a (when, seq) event on the
// clock. No lock guards order; the turns hand it from thread to thread.
func TestEqualDeadlinesWakeInSpawnOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	clk := vclock.NewVirtual()
	r, k, _ := newRig(clk, Config{MemoryBudget: -1})
	const threads = 64
	var order []int
	writers := make([]kernel.FD, threads)
	clk.Enter()
	for i := range writers {
		rfd, wfd := k.NewPipe(0)
		writers[i] = wfd
		r.Spawn(func(t *Thread) {
			t.Read(rfd, make([]byte, 1))
			order = append(order, i)
		})
	}
	clk.Exit() // every thread runs its first turn and parks on its pipe
	clk.Enter()
	for _, wfd := range writers {
		k.Write(wfd, []byte{'x'})
	}
	clk.Exit()
	r.Wait()
	if len(order) != threads {
		t.Fatalf("%d of %d readers woke", len(order), threads)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("wake order %v, want spawn order", order)
		}
	}
}

// A parked reader is its own goroutine and nothing else: its readiness
// wait is a callback the kernel runs, not a helper goroutine blocked in a
// wait on the reader's behalf.
func TestParkedReadersCostOneGoroutineEach(t *testing.T) {
	r, k, _ := newRig(nil, Config{MemoryBudget: -1})
	const readers = 64
	before := runtime.NumGoroutine()
	writers := make([]kernel.FD, readers)
	for i := range writers {
		rfd, wfd := k.NewPipe(0)
		writers[i] = wfd
		r.Spawn(func(t *Thread) { t.Read(rfd, make([]byte, 1)) })
	}
	// Every reader has found its pipe empty; let whatever a park starts
	// get started, then count.
	deadline := time.Now().Add(5 * time.Second)
	for k.Metrics().Snapshot().Counter("eagains") < readers {
		if time.Now().After(deadline) {
			t.Fatal("readers did not park")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if d := runtime.NumGoroutine() - before; d > readers+readers/4 {
		t.Fatalf("%d parked readers hold %d goroutines, want %d", readers, d, readers)
	}
	for _, wfd := range writers {
		k.Close(wfd)
	}
	r.Wait()
}

// Each block/wake pair on a real clock pays its context switch: it
// touches the thread's reserved stack.
func TestSwitchesCounted(t *testing.T) {
	r, k, _ := newRig(nil, Config{MemoryBudget: -1})
	rfd, wfd := k.NewPipe(4)
	r.Spawn(func(t *Thread) {
		buf := make([]byte, 4)
		for {
			n, err := t.Read(rfd, buf)
			if n == 0 || err != nil {
				return
			}
		}
	})
	var touched byte
	r.Spawn(func(t *Thread) {
		for i := 0; i < 10; i++ {
			t.WriteAll(wfd, []byte("abcdefgh")) // forces blocking on the 4-byte pipe
		}
		touched = t.stack[0]
		t.Close(wfd)
	})
	r.Wait()
	if touched == 0 {
		t.Fatal("no context switches recorded")
	}
}
