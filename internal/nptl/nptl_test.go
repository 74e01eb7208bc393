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
	if r.Threads() != 0 || r.StackMemory() != 0 {
		t.Fatalf("leaked: threads=%d stack=%d", r.Threads(), r.StackMemory())
	}
}

func TestMemoryBudgetCapsThreads(t *testing.T) {
	// The paper's configuration: 32 KB stacks in 512 MB caps NPTL at 16 K
	// threads. Use a scaled-down budget for speed.
	r, _, _ := newRig(nil, Config{StackSize: 32 * 1024, MemoryBudget: 32 * 1024 * 100, StackTouch: -1})
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
		fd, err := t.Connect("srv:1")
		if err != nil {
			return
		}
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
	r, _, fs := newRig(clk, Config{MemoryBudget: -1, SwitchCost: time.Millisecond})
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
	if got != base+time.Millisecond {
		t.Fatalf("virtual time = %v, want service %v + 1ms switch cost", got, base)
	}
}

func TestManyThreadsConcurrentPreadUseElevator(t *testing.T) {
	clk := vclock.NewVirtual()
	r, _, fs := newRig(clk, Config{MemoryBudget: -1})
	f, _ := fs.Create("big", 1<<30, false)
	const threads = 32
	var completed atomic.Int64
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
	r.Wait()
	if completed.Load() != threads {
		t.Fatalf("completed %d of %d", completed.Load(), threads)
	}
	if d := fs.Disk().Snapshot(); d.MaxQueue < 2 {
		t.Fatalf("requests never queued concurrently (MaxQueue=%d)", d.MaxQueue)
	}
}

func TestSleepVirtual(t *testing.T) {
	clk := vclock.NewVirtual()
	r, _, _ := newRig(clk, Config{MemoryBudget: -1})
	var order []int
	// Both threads must be on the clock before time may move: without the
	// hold, the first can park and virtual time jump to 20 ms before the
	// second Spawn runs.
	clk.Enter()
	r.Spawn(func(t *Thread) { t.Sleep(20 * time.Millisecond); order = append(order, 2) })
	r.Spawn(func(t *Thread) { t.Sleep(10 * time.Millisecond); order = append(order, 1) })
	clk.Exit()
	r.Wait()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("wake order = %v", order)
	}
	if clk.Now() != vclock.Time(20*time.Millisecond) {
		t.Fatalf("final time = %v", clk.Now())
	}
}

// A parked reader is its own goroutine and nothing else: its readiness
// wait is a callback the kernel runs, not a helper goroutine blocked in a
// wait on the reader's behalf.
func TestParkedReadersCostOneGoroutineEach(t *testing.T) {
	r, k, _ := newRig(nil, Config{MemoryBudget: -1, StackTouch: -1})
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
	for k.Snapshot().EAGAINs < readers {
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
	r.Spawn(func(t *Thread) {
		for i := 0; i < 10; i++ {
			t.WriteAll(wfd, []byte("abcdefgh")) // forces blocking on the 4-byte pipe
		}
		t.Close(wfd)
	})
	r.Wait()
	if r.Switches() == 0 {
		t.Fatal("no context switches recorded")
	}
}
