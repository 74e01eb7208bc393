package hio

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hybrid/internal/bufpool"
	"hybrid/internal/core"
	"hybrid/internal/disk"
	"hybrid/internal/faults"
	"hybrid/internal/kernel"
	"hybrid/internal/vclock"
)

// rig is a full hybrid stack: runtime + kernel + fs + IO layer.
type rig struct {
	rt *core.Runtime
	k  *kernel.Kernel
	fs *kernel.FS
	io *IO
}

func newRig(t *testing.T, clk vclock.Clock, workers int) *rig {
	t.Helper()
	if clk == nil {
		clk = vclock.NewReal()
	}
	k := kernel.New(clk)
	d := disk.New(clk, disk.DefaultGeometry())
	fs := kernel.NewFS(d)
	rt := core.NewRuntime(core.Options{Workers: workers, Clock: clk})
	io := New(rt, k, fs)
	t.Cleanup(rt.Shutdown)
	return &rig{rt: rt, k: k, fs: fs, io: io}
}

func TestEpollWaitWakesOnData(t *testing.T) {
	r := newRig(t, nil, 1)
	rfd, wfd := r.k.NewPipe(0)
	var got atomic.Int64
	r.rt.Spawn(core.Seq(
		core.Bind(r.io.EpollWait(rfd, kernel.EventRead), func(kernel.Event) core.M[core.Unit] {
			return core.Do(func() { got.Store(1) })
		}),
	))
	// Let the thread park, then make the pipe readable.
	deadline := time.Now().Add(5 * time.Second)
	for r.rt.Live() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("thread did not park")
		}
		time.Sleep(time.Millisecond)
	}
	if got.Load() != 0 {
		t.Fatal("EpollWait returned before readiness")
	}
	if _, err := r.k.Write(wfd, []byte("x")); err != nil {
		t.Fatal(err)
	}
	r.rt.WaitIdle()
	if got.Load() != 1 {
		t.Fatal("thread did not wake on readiness")
	}
}

func TestEpollWaitBadFDThrows(t *testing.T) {
	r := newRig(t, nil, 1)
	var caught atomic.Bool
	r.rt.Run(core.Catch(
		core.Then(r.io.EpollWait(kernel.FD(999), kernel.EventRead), core.Skip),
		func(err error) core.M[core.Unit] {
			return core.Do(func() { caught.Store(true) })
		},
	))
	if !caught.Load() {
		t.Fatal("bad-fd EpollWait did not throw")
	}
}

// A descriptor closed between an attempt that would block and the arm
// that watches it: the watch is refused, the arm wakes the record at
// once, and the retried read raises the kernel's ErrBadFD.
func TestPollArmOnClosedFDRetriesIntoErrBadFD(t *testing.T) {
	r := newRig(t, vclock.NewVirtual(), 1)
	rfd, _ := r.k.NewPipe(0)
	rec := &closingRead{fdWait: fdWait{io: r.io, fd: rfd, mask: kernel.EventRead}}
	read := func(k func(int) core.Trace) core.Trace { return core.Poll(rec, k) }
	attempts := &rec.attempts
	var got error
	r.rt.Run(core.Catch(core.Then(read, core.Skip), func(err error) core.M[core.Unit] {
		return core.Do(func() { got = err })
	}))
	if !errors.Is(got, kernel.ErrBadFD) || *attempts != 2 {
		t.Fatalf("after %d attempts caught %v, want ErrBadFD from the second", *attempts, got)
	}
	if p := r.rt.Stats().Snapshot().Counter("parks"); p != 1 {
		t.Fatalf("%d parks, want 1", p)
	}
}

// closingRead is a one-byte read record that closes its descriptor when
// the read would block, before the thread parks.
type closingRead struct {
	core.PollSpine[int]
	fdWait
	attempts int
}

func (c *closingRead) Attempt() (int, core.Readiness, error) {
	c.attempts++
	n, err := c.io.k.Read(c.fd, make([]byte, 1))
	rd, err := ready(err, false)
	if rd == core.Block {
		c.io.k.Close(c.fd) // closed under the thread, before it parks
	}
	return n, rd, err
}

func TestSockSendAndReadAcrossPipe(t *testing.T) {
	// A writer thread pushes 64 KB through a 4 KB pipe to a reader thread:
	// both must repeatedly block and wake via epoll.
	r := newRig(t, nil, 2)
	rfd, wfd := r.k.NewPipe(4096)
	payload := make([]byte, 64*1024)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	received := make([]byte, 0, len(payload))
	var done atomic.Bool
	r.rt.Run(core.Seq(
		core.Fork(core.Bind(r.io.SockSend(wfd, payload), func(int) core.M[core.Unit] {
			return r.io.CloseFD(wfd)
		})),
		core.Fork(func() core.M[core.Unit] {
			buf := make([]byte, 1500)
			var loop func() core.M[core.Unit]
			loop = func() core.M[core.Unit] {
				return core.Bind(r.io.SockRead(rfd, buf), func(n int) core.M[core.Unit] {
					if n == 0 {
						return core.Do(func() { done.Store(true) })
					}
					received = append(received, buf[:n]...)
					return loop()
				})
			}
			return loop()
		}()),
	))
	if !done.Load() {
		t.Fatal("reader did not see EOF")
	}
	if !bytes.Equal(received, payload) {
		t.Fatalf("received %d bytes, want %d; content mismatch", len(received), len(payload))
	}
}

func TestAcceptConnectEcho(t *testing.T) {
	r := newRig(t, nil, 2)
	var echoed atomic.Value
	serve := func(lfd kernel.FD) core.M[core.Unit] {
		return core.Bind(r.io.SockAccept(lfd), func(conn kernel.FD) core.M[core.Unit] {
			buf := make([]byte, 128)
			return core.Bind(r.io.SockRead(conn, buf), func(n int) core.M[core.Unit] {
				return core.Then(
					core.Bind(r.io.SockSend(conn, buf[:n]), func(int) core.M[core.Unit] { return core.Skip }),
					r.io.CloseFD(conn),
				)
			})
		})
	}
	client := core.Bind(r.io.SockConnect("echo:1"), func(fd kernel.FD) core.M[core.Unit] {
		return core.Then(
			core.Bind(r.io.SockSend(fd, []byte("hello hybrid")), func(int) core.M[core.Unit] { return core.Skip }),
			core.Bind(func() core.M[int] {
				buf := make([]byte, 128)
				return core.Bind(r.io.SockReadFull(fd, buf[:12]), func(n int) core.M[int] {
					echoed.Store(string(buf[:n]))
					return core.Return(n)
				})
			}(), func(int) core.M[core.Unit] { return r.io.CloseFD(fd) }),
		)
	})
	// Listen before the client can connect, then serve concurrently.
	lfd, err := r.k.Listen("echo:1", 16)
	if err != nil {
		t.Fatal(err)
	}
	r.rt.Run(core.Seq(core.Fork(serve(lfd)), client))
	if echoed.Load() != "hello hybrid" {
		t.Fatalf("echoed = %v", echoed.Load())
	}
}

func TestSockAcceptWaitsForConnection(t *testing.T) {
	r := newRig(t, nil, 1)
	var accepted atomic.Bool
	lfd, err := r.k.Listen("late:1", 4)
	if err != nil {
		t.Fatal(err)
	}
	r.rt.Spawn(core.Bind(r.io.SockAccept(lfd), func(kernel.FD) core.M[core.Unit] {
		return core.Do(func() { accepted.Store(true) })
	}))
	if accepted.Load() {
		t.Fatal("accept returned without a connection")
	}
	if _, err := r.k.Connect("late:1"); err != nil {
		t.Fatal(err)
	}
	r.rt.WaitIdle()
	if !accepted.Load() {
		t.Fatal("acceptor did not wake")
	}
}

func TestSockSendToClosedPeerThrows(t *testing.T) {
	r := newRig(t, nil, 1)
	a, b := r.k.SocketPair()
	if err := r.k.Close(b); err != nil {
		t.Fatal(err)
	}
	var caught atomic.Bool
	r.rt.Run(core.Catch(
		core.Bind(r.io.SockSend(a, []byte("x")), func(int) core.M[core.Unit] { return core.Skip }),
		func(err error) core.M[core.Unit] {
			return core.Do(func() { caught.Store(true) })
		},
	))
	if !caught.Load() {
		t.Fatal("EPIPE not thrown as exception")
	}
}

func TestAIOReadFromThread(t *testing.T) {
	clk := vclock.NewVirtual()
	r := newRig(t, clk, 1)
	f, err := r.fs.Create("blob", 1<<20, false)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	var n atomic.Int64
	var at atomic.Int64
	r.rt.Run(core.Bind(r.io.AIORead(f, 8192, buf), func(got int) core.M[core.Unit] {
		return core.Do(func() {
			n.Store(int64(got))
			at.Store(int64(clk.Now()))
		})
	}))
	if n.Load() != 4096 {
		t.Fatalf("AIORead = %d", n.Load())
	}
	if at.Load() == 0 {
		t.Fatal("AIO read took no virtual time")
	}
	// Contents must match the pattern.
	for i := range buf {
		if buf[i] != kernel.PatternByte("blob", 8192+int64(i)) {
			t.Fatalf("content mismatch at %d", i)
		}
	}
}

// A failed AIO read comes back from AIOReadResult as a value, with no
// exception raised; AIORead throws the same error.
func TestAIOReadFailureIsAValue(t *testing.T) {
	clk := vclock.NewVirtual()
	r := newRig(t, clk, 1)
	r.fs.Disk().SetFaults(faults.New(faults.Config{
		Seed: 1, Rates: map[faults.Op]float64{faults.DiskRead: 1},
	}, clk))
	f, err := r.fs.Create("blob", 4096, false)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	var got Result[int]
	var thrown error
	r.rt.Run(core.Seq(
		core.Bind(r.io.AIOReadResult(f, 0, buf), func(res Result[int]) core.M[core.Unit] {
			return core.Do(func() { got = res })
		}),
		core.Catch(core.Then(r.io.AIORead(f, 0, buf), core.Skip), func(err error) core.M[core.Unit] {
			return core.Do(func() { thrown = err })
		}),
	))
	if got.Val != 0 || !errors.Is(got.Err, disk.ErrIO) {
		t.Fatalf("AIOReadResult = %+v, want the disk's EIO as a value", got)
	}
	if !errors.Is(thrown, disk.ErrIO) {
		t.Fatalf("AIORead threw %v, want the disk's EIO", thrown)
	}
	if errs := r.rt.UncaughtErrors(); len(errs) != 0 {
		t.Fatalf("uncaught: %v", errs)
	}
}

func TestConcurrentAIOBenefitsFromElevator(t *testing.T) {
	// Many threads reading random blocks concurrently must finish sooner
	// (in virtual time) per request than a single sequential reader — the
	// disk-head-scheduling effect the hybrid model exploits in Figure 17.
	perRequest := func(threads, reads int) time.Duration {
		clk := vclock.NewVirtual()
		r := newRig(t, clk, 1)
		f, err := r.fs.Create("f", 1<<30, false)
		if err != nil {
			t.Fatal(err)
		}
		rng := uint64(12345)
		next := func() int64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			return int64(rng % uint64(1<<30-4096))
		}
		offsets := make([]int64, threads*reads)
		for i := range offsets {
			offsets[i] = next()
		}
		buf := make([]byte, 4096)
		var prog core.M[core.Unit] = core.Skip
		for ti := 0; ti < threads; ti++ {
			ti := ti
			prog = core.Then(prog, core.Fork(core.ForN(reads, func(i int) core.M[core.Unit] {
				off := offsets[ti*reads+i]
				return core.Bind(r.io.AIORead(f, off, buf), func(int) core.M[core.Unit] { return core.Skip })
			})))
		}
		r.rt.Run(prog)
		total := threads * reads
		return time.Duration(int64(clk.Now()) / int64(total))
	}
	seq := perRequest(1, 64)
	conc := perRequest(64, 1)
	if !(conc < seq) {
		t.Fatalf("no elevator benefit: sequential %v/req, concurrent %v/req", seq, conc)
	}
}

func TestFileOpenViaBlio(t *testing.T) {
	r := newRig(t, nil, 1)
	if _, err := r.fs.Create("exists", 10, true); err != nil {
		t.Fatal(err)
	}
	var ok, missing atomic.Bool
	r.rt.Run(core.Seq(
		core.Bind(r.io.FileOpen("exists"), func(f *kernel.File) core.M[core.Unit] {
			return core.Do(func() { ok.Store(f != nil) })
		}),
		core.Bind(r.io.FileOpen("missing"), func(f *kernel.File) core.M[core.Unit] {
			return core.Do(func() { missing.Store(f == nil) })
		}),
	))
	if !ok.Load() || !missing.Load() {
		t.Fatalf("ok=%v missing=%v", ok.Load(), missing.Load())
	}
}

func TestManyIdleEpollWaiters(t *testing.T) {
	// The Figure 18 shape in miniature: thousands of threads parked in
	// EpollWait on idle pipes while two active threads exchange data.
	r := newRig(t, nil, 2)
	const idle = 2000
	for i := 0; i < idle; i++ {
		rfd, _ := r.k.NewPipe(0)
		r.rt.Spawn(core.Then(r.io.EpollWait(rfd, kernel.EventRead), core.Skip))
	}
	rfd, wfd := r.k.NewPipe(4096)
	payload := make([]byte, 32*1024)
	var got atomic.Int64
	r.rt.Spawn(core.Bind(r.io.SockSend(wfd, payload), func(int) core.M[core.Unit] {
		return r.io.CloseFD(wfd)
	}))
	r.rt.Spawn(func() core.M[core.Unit] {
		buf := make([]byte, 4096)
		var loop func() core.M[core.Unit]
		loop = func() core.M[core.Unit] {
			return core.Bind(r.io.SockRead(rfd, buf), func(n int) core.M[core.Unit] {
				if n == 0 {
					return core.Skip
				}
				got.Add(int64(n))
				return loop()
			})
		}
		return loop()
	}())
	deadline := time.Now().Add(10 * time.Second)
	for got.Load() != int64(len(payload)) {
		if time.Now().After(deadline) {
			t.Fatalf("transferred %d of %d with %d idle threads", got.Load(), len(payload), idle)
		}
		time.Sleep(time.Millisecond)
	}
	// The reader still has to read EOF and retire, and the sender to
	// close, after the last byte lands.
	for r.rt.Live() > idle && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if live := r.rt.Live(); live != idle {
		t.Fatalf("Live = %d, want %d idle threads still parked", live, idle)
	}
}

// The real-clock resume path under a burst: 256 threads parked in
// EpollWait across two workers — half on their own pipe, half sharing one
// pipe's read end, so a single state change fires 128 watches at once —
// all made readable back to back from the test goroutine. Every thread
// resumes exactly once, the kernel counts one wakeup per thread, and
// nothing stays parked.
func TestEpollBurstResumesEachThreadOnce(t *testing.T) {
	r := newRig(t, nil, 2)
	const distinct, sharing = 128, 128
	const threads = distinct + sharing
	resumed := make([]atomic.Int32, threads)
	park := func(i int, rfd kernel.FD) {
		r.rt.Spawn(core.Then(r.io.EpollWait(rfd, kernel.EventRead),
			core.Do(func() { resumed[i].Add(1) })))
	}
	writers := make([]kernel.FD, 0, distinct+1)
	for i := 0; i < distinct; i++ {
		rfd, wfd := r.k.NewPipe(0)
		writers = append(writers, wfd)
		park(i, rfd)
	}
	sharedR, sharedW := r.k.NewPipe(0)
	writers = append(writers, sharedW)
	for i := distinct; i < threads; i++ {
		park(i, sharedR)
	}
	deadline := time.Now().Add(5 * time.Second)
	for r.rt.Stats().Snapshot().Counter("parks") != threads {
		if time.Now().After(deadline) {
			t.Fatal("threads did not park")
		}
		time.Sleep(time.Millisecond)
	}
	before := r.k.Metrics().Snapshot().Counter("wakeups")

	for _, wfd := range writers {
		if _, err := r.k.Write(wfd, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	for r.rt.Live() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d threads still parked after the burst", r.rt.Live())
		}
		time.Sleep(time.Millisecond)
	}
	for i := range resumed {
		if n := resumed[i].Load(); n != 1 {
			t.Fatalf("thread %d resumed %d times, want exactly once", i, n)
		}
	}
	if got := r.k.Metrics().Snapshot().Counter("wakeups") - before; got != threads {
		t.Fatalf("kernel wakeups advanced by %d, want %d", got, threads)
	}
}

// Readiness is a callback: binding an IO layer on a real clock starts no
// event-loop goroutine (the paper's worker_epoll has nothing to harvest
// from a kernel that resumes the waiter where readiness arises).
func TestNewStartsNoGoroutine(t *testing.T) {
	clk := vclock.NewReal()
	k := kernel.New(clk)
	rt := core.NewRuntime(core.Options{Workers: 1, Clock: clk})
	defer rt.Shutdown()
	before := runtime.NumGoroutine()
	New(rt, k, nil)
	if d := runtime.NumGoroutine() - before; d > 0 {
		t.Fatalf("hio.New started %d goroutines, want none", d)
	}
}

func TestAIOWriteFromThread(t *testing.T) {
	clk := vclock.NewVirtual()
	r := newRig(t, clk, 1)
	f, err := r.fs.Create("w", 8192, true)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("written through sys_aio_write")
	var wrote atomic.Int64
	r.rt.Run(core.Bind(r.io.AIOWrite(f, 100, payload), func(n int) core.M[core.Unit] {
		return core.Do(func() { wrote.Store(int64(n)) })
	}))
	if int(wrote.Load()) != len(payload) {
		t.Fatalf("AIOWrite = %d", wrote.Load())
	}
	back := make([]byte, len(payload))
	var read atomic.Int64
	r.rt.Run(core.Bind(r.io.AIORead(f, 100, back), func(n int) core.M[core.Unit] {
		return core.Do(func() { read.Store(int64(n)) })
	}))
	if string(back) != string(payload) {
		t.Fatalf("read back %q", back)
	}
	if clk.Now() == 0 {
		t.Fatal("writes consumed no virtual time")
	}
}

func TestAIOWriteToPatternFileThrows(t *testing.T) {
	r := newRig(t, vclock.NewVirtual(), 1)
	f, _ := r.fs.Create("ro", 4096, false)
	var caught atomic.Bool
	r.rt.Run(core.Catch(
		core.Bind(r.io.AIOWrite(f, 0, []byte("x")), func(int) core.M[core.Unit] { return core.Skip }),
		func(error) core.M[core.Unit] { return core.Do(func() { caught.Store(true) }) },
	))
	if !caught.Load() {
		t.Fatal("write to read-only file did not throw")
	}
}

func TestIOSleepAdvancesKernelClock(t *testing.T) {
	clk := vclock.NewVirtual()
	r := newRig(t, clk, 1)
	r.rt.Run(r.io.Sleep(7 * time.Millisecond))
	if clk.Now() != vclock.Time(7*time.Millisecond) {
		t.Fatalf("now = %v", clk.Now())
	}
}

func TestEpollWaitWriteReadiness(t *testing.T) {
	// A thread waiting for EventWrite on a full pipe wakes when the
	// reader drains it.
	r := newRig(t, nil, 1)
	rfd, wfd := r.k.NewPipe(4)
	if _, err := r.k.Write(wfd, make([]byte, 4)); err != nil {
		t.Fatal(err)
	}
	var woke atomic.Bool
	r.rt.Spawn(core.Then(
		r.io.EpollWait(wfd, kernel.EventWrite),
		core.Do(func() { woke.Store(true) }),
	))
	deadline := time.Now().Add(5 * time.Second)
	for r.rt.Live() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("thread did not park")
		}
		time.Sleep(time.Millisecond)
	}
	if woke.Load() {
		t.Fatal("woke while pipe still full")
	}
	if _, err := r.k.Read(rfd, make([]byte, 2)); err != nil {
		t.Fatal(err)
	}
	r.rt.WaitIdle()
	if !woke.Load() {
		t.Fatal("thread did not wake on writability")
	}
}

// One application of SockSendCell sends whatever the cell holds each time
// its trace is re-entered (Loop caches its body's trace): messages bigger
// than the pipe (the send parks, and the park record built at the first
// EAGAIN serves the later ones), an empty one, a small one. One
// application of SockReadCell takes them off through a window the reader
// moves between reads.
func TestCellPrimitivesReenterPerMessage(t *testing.T) {
	r := newRig(t, vclock.NewVirtual(), 1)
	rfd, wfd := r.k.NewPipe(256)
	msgs := [][]byte{bytes.Repeat([]byte("a"), 1000), {}, []byte("tail"), bytes.Repeat([]byte("b"), 700)}
	var (
		out      = msgs[0]           // the send cell
		buf      = make([]byte, 300) // the receive cell is a window of buf
		in       = buf[:1]
		sent     []int
		reads    int
		received []byte
	)
	r.rt.Run(core.Seq(
		core.Fork(core.Then(
			core.Loop(core.Map(r.io.SockSendCell(wfd, &out, false), func(n int) bool {
				sent = append(sent, n)
				if len(sent) == len(msgs) {
					return false
				}
				out = msgs[len(sent)]
				return true
			})),
			r.io.CloseFD(wfd))),
		core.Fork(core.Loop(core.Map(r.io.SockReadCell(rfd, &in), func(n int) bool {
			if n > len(in) {
				t.Errorf("read %d bytes into a %d-byte window", n, len(in))
			}
			received = append(received, in[:n]...)
			reads++
			in = buf[:1+reads*37%len(buf)]
			return n > 0
		}))),
	))
	if want := []int{1000, 0, 4, 700}; !slices.Equal(sent, want) {
		t.Fatalf("send counts %v, want %v", sent, want)
	}
	if !bytes.Equal(received, bytes.Join(msgs, nil)) {
		t.Fatalf("received %d bytes, want the 1704 sent, in order", len(received))
	}
}

// One application of SockReadCell reads or discards, as its window says,
// each time it is forced. The reader keeps the first byte of each
// message and discards the rest through Sink; the messages overfill the
// socket, so both sides park and discards come back short. It stops at
// end of stream, having kept one byte per message, in order, and dropped
// exactly the others.
func TestSockReadCellDiscards(t *testing.T) {
	r := newRig(t, vclock.NewVirtual(), 1)
	a, b := r.k.SocketPair()
	const msgs, size = 20, 10000
	msg := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i)}, size) }
	var (
		out     = msg(0)
		sent    int
		one     = make([]byte, 1)
		in      = one
		rest    int // bytes of the current message still to discard
		kept    []byte
		dropped int
		short   int // discards that took less than the rest of a message
	)
	r.rt.Run(core.Seq(
		core.Fork(core.Then(
			core.Loop(core.Map(r.io.SockSendCell(a, &out, false), func(int) bool {
				sent++
				out = msg(sent)
				return sent < msgs
			})),
			r.io.CloseFD(a))),
		core.Loop(core.Map(r.io.SockReadCell(b, &in), func(n int) bool {
			if rest > 0 {
				if n > 0 && n < rest {
					short++
				}
				dropped += n
				rest -= n
			} else if n > 0 {
				kept = append(kept, one[0])
				rest = size - 1
			}
			in = one
			if rest > 0 {
				in = Sink(rest)
			}
			return n > 0
		})),
	))
	if want := "abcdefghijklmnopqrst"; string(kept) != want || dropped != msgs*(size-1) {
		t.Fatalf("kept %q and dropped %d bytes, want %q and %d", kept, dropped, want, msgs*(size-1))
	}
	if short == 0 {
		t.Fatal("no discard came back short: the reader never caught up with the writer")
	}
	if sink != [len(sink)]byte{} {
		t.Fatal("a read wrote into the sink")
	}
}

// One SockSendCell M applied twice is two sends with a cursor each (rule
// 2 of "Continuation flattening"). Two threads force the same M on a pipe
// smaller than the message, so both are parked mid-message at once: the
// first took "a…" from the cell, the second found "b…" there. A cursor
// kept per M would have the second thread carry on with the first one's
// unsent suffix, and the buffer would be loaded a second time only when
// that ran out — by when the cell holds "a…" again. (The count delivered
// is the cell's length, so the test keeps the lengths equal.)
func TestSockSendCellCursorPerApplication(t *testing.T) {
	r := newRig(t, vclock.NewVirtual(), 1)
	rfd, wfd := r.k.NewPipe(256)
	a, b := bytes.Repeat([]byte("a"), 600), bytes.Repeat([]byte("b"), 600)
	out := a
	send := r.io.SockSendCell(wfd, &out, false)
	var sent []int
	var received []byte
	in := make([]byte, 100)
	senders := core.NewWaitGroup(2)
	sender := core.Seq(
		core.Bind(send, func(n int) core.M[core.Unit] {
			sent = append(sent, n)
			return core.Skip
		}),
		senders.Done())
	r.rt.Run(core.Seq(
		core.Fork(sender),
		core.Fork(core.Then(core.Do(func() { out = b }), sender)),
		core.Fork(core.Seq(core.Do(func() { out = a }), senders.Wait(), r.io.CloseFD(wfd))),
		core.Loop(core.Map(r.io.SockRead(rfd, in), func(n int) bool {
			received = append(received, in[:n]...)
			return n > 0
		})),
	))
	if want := []int{600, 600}; !slices.Equal(sent, want) {
		t.Fatalf("send counts %v, want %v", sent, want)
	}
	if na, nb := bytes.Count(received, []byte("a")), bytes.Count(received, []byte("b")); na != 600 || nb != 600 {
		t.Fatalf("received %d a and %d b, want 600 of each", na, nb)
	}
}

func TestSockReadFullStopsAtEOF(t *testing.T) {
	r := newRig(t, nil, 1)
	a, b := r.k.SocketPair()
	if _, err := r.k.Write(a, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := r.k.Close(a); err != nil {
		t.Fatal(err)
	}
	var got atomic.Int64
	buf := make([]byte, 10)
	r.rt.Run(core.Bind(r.io.SockReadFull(b, buf), func(n int) core.M[core.Unit] {
		return core.Do(func() { got.Store(int64(n)) })
	}))
	if got.Load() != 3 {
		t.Fatalf("ReadFull at EOF = %d, want 3", got.Load())
	}
}

func TestMultipleEventLoopsPartitionSources(t *testing.T) {
	// Figure 14 shows several event sources around one scheduler. Two IO
	// layers on the same kernel are independent: a thread waiting through
	// either is woken by its own descriptor and nothing else.
	clk := vclock.NewReal()
	k := kernel.New(clk)
	rt := core.NewRuntime(core.Options{Workers: 2, Clock: clk})
	defer rt.Shutdown()
	io1 := New(rt, k, nil)
	io2 := New(rt, k, nil)

	r1, w1 := k.NewPipe(0)
	r2, w2 := k.NewPipe(0)
	var woke1, woke2 atomic.Bool
	rt.Spawn(core.Then(io1.EpollWait(r1, kernel.EventRead), core.Do(func() { woke1.Store(true) })))
	rt.Spawn(core.Then(io2.EpollWait(r2, kernel.EventRead), core.Do(func() { woke2.Store(true) })))
	deadline := time.Now().Add(5 * time.Second)
	for rt.Live() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("threads did not park")
		}
		time.Sleep(time.Millisecond)
	}
	k.Write(w2, []byte("x"))
	for !woke2.Load() {
		if time.Now().After(deadline) {
			t.Fatal("loop 2 did not deliver")
		}
		time.Sleep(time.Millisecond)
	}
	if woke1.Load() {
		t.Fatal("loop 1 woke without an event")
	}
	k.Write(w1, []byte("y"))
	rt.WaitIdle()
	if !woke1.Load() {
		t.Fatal("loop 1 did not deliver")
	}
}

// The allocation pins (make core-alloc). hio's wrappers are core.Poll
// records over a nonblocking call, so what a message costs is what its
// parks cost: nothing, once the record has bound its arm — whether the
// message blocks or not.

// skipAllocPinUnderRace: the socket rings draw their segments from
// bufpool, and under the race detector sync.Pool drops a quarter of what
// is put back and bufpool's ownership checks allocate, so a count taken
// there is not the one the pin is about (make race-smp runs this package).
func skipAllocPinUnderRace(t *testing.T) {
	if bufpool.RaceChecked {
		t.Skip("allocation counts differ under the race detector")
	}
}

// A cell send and a cell read that never block, re-forced per message,
// allocate nothing.
func TestAllocCellRoundTripNoPark(t *testing.T) {
	skipAllocPinUnderRace(t)
	r := newRig(t, vclock.NewVirtual(), 1)
	a, b := r.k.SocketPair()
	out, in := []byte("ping"), make([]byte, 4)
	const msgs = 500
	// Both halves applied once, as the serve loop and the request pump
	// apply theirs (Then would re-apply its second half per message).
	body := func(k func(core.Unit) core.Trace) core.Trace {
		read := r.io.SockReadCell(b, &in)(func(int) core.Trace { return k(core.Unit{}) })
		return r.io.SockSendCell(a, &out, false)(func(int) core.Trace { return read })
	}
	total := testing.AllocsPerRun(10, func() { r.rt.Run(core.RepeatN(msgs, body)) })
	if per := total / msgs; per > 0.05 {
		t.Fatalf("cell round trip allocates %.2f allocs/message (%.0f per run), want 0", per, total)
	}
}

// A cell read that blocks on every message parks on its Poll record's
// embedded wait record, which the kernel links by value: after the first
// park a message allocates nothing. Two threads trade one byte through
// cells applied once, and each read finds its socket empty.
func TestAllocWaitPark(t *testing.T) {
	skipAllocPinUnderRace(t)
	r := newRig(t, vclock.NewVirtual(), 1)
	a, b := r.k.SocketPair()
	ping, pong := []byte{1}, []byte{2}
	inA, inB := make([]byte, 1), make([]byte, 1)
	const msgs = 2000 // the per-run set-up, about 40 allocations, is spread thin
	// side is one end of the exchange, both halves applied once: send
	// then read when it serves first, read then send when it answers.
	side := func(fd kernel.FD, out, in *[]byte, serves bool) core.M[core.Unit] {
		return func(k func(core.Unit) core.Trace) core.Trace {
			var send, read core.Trace
			if serves {
				read = r.io.SockReadCell(fd, in)(func(int) core.Trace { return k(core.Unit{}) })
				send = r.io.SockSendCell(fd, out, false)(func(int) core.Trace { return read })
				return send
			}
			send = r.io.SockSendCell(fd, out, false)(func(int) core.Trace { return k(core.Unit{}) })
			read = r.io.SockReadCell(fd, in)(func(int) core.Trace { return send })
			return read
		}
	}
	parks := func() int64 { return r.rt.Stats().Snapshot().Counter("parks") }
	var runs int64
	p0 := parks()
	total := testing.AllocsPerRun(10, func() {
		runs++
		r.rt.Spawn(core.RepeatN(msgs, side(b, &pong, &inB, false)))
		r.rt.Run(core.RepeatN(msgs, side(a, &ping, &inA, true)))
	})
	// AllocsPerRun makes one warm-up run besides the ten it counts.
	if got, want := parks()-p0, runs*2*msgs; got != want {
		t.Fatalf("%d parks in %d runs, want %d: a read found data waiting", got, runs, want)
	}
	if per := total / msgs; per > 0.05 {
		t.Fatalf("blocking cell read allocates %.2f allocs/message (%.0f per run), want 0", per, total)
	} else {
		t.Logf("blocking cell read: %.3f allocs/message (%.0f per run)", per, total)
	}
}

// The benchmark's hio.sock_pingpong shape (benchmark/probes.go): a
// one-byte round trip between two threads, each side parking on its
// read's record once per trip, spelled two ways. With Then, 5 allocations
// per trip measured — the second wrapper of each Then, re-applied per
// trip as its one record and, at its first park, its watch callback —
// where a first park that also bound its arm cost 6, the wrappers'
// closure bundles 13, parks that wrapped the thread in closures 31, and
// the closure spelling of the wrappers 56. Seq applies both wrappers once
// a loop, and every trip re-forces them: 0.0 measured. The bounds are
// what stop a park or the generic wrappers quietly rebuilding closures
// again, and Seq re-applying what it has applied.
func TestAllocSockPingPong(t *testing.T) {
	skipAllocPinUnderRace(t)
	one := []byte{1}
	for _, tc := range []struct {
		name  string
		bound float64
		seq   func(a, b core.M[core.Unit]) core.M[core.Unit]
	}{
		{"Then", 7, func(a, b core.M[core.Unit]) core.M[core.Unit] { return core.Then(a, b) }},
		{"Seq", 1, func(a, b core.M[core.Unit]) core.M[core.Unit] { return core.Seq(a, b) }},
	} {
		r := newRig(t, vclock.NewVirtual(), 1)
		a, b := r.k.SocketPair()
		bufA, bufB := make([]byte, 1), make([]byte, 1)
		unit := func(m core.M[int]) core.M[core.Unit] { return core.Then(m, core.Skip) }
		r.rt.Spawn(core.Forever(tc.seq(unit(r.io.SockRead(b, bufB)), unit(r.io.SockSend(b, one)))))
		trip := tc.seq(unit(r.io.SockSend(a, one)), unit(r.io.SockRead(a, bufA)))
		const trips = 500
		total := testing.AllocsPerRun(10, func() {
			done := make(chan struct{})
			r.rt.Spawn(core.Then(core.RepeatN(trips, trip), core.Do(func() { close(done) })))
			<-done
		})
		if per := total / trips; per > tc.bound {
			t.Errorf("%s ping-pong allocates %.1f allocs/trip, want <= %.0f", tc.name, per, tc.bound)
		} else {
			t.Logf("%s ping-pong: %.1f allocs/trip", tc.name, per)
		}
	}
}

// An application of a ported primitive's M is its one record, whatever
// the inliner does (make core-alloc). Each M is built beforehand, once
// directly and once inside a //go:noinline wrapper — the inlined copy of
// a constructor that once kept core.Poll out of line, so that SockSend
// cost a closure more per application than SockSendCell — and one
// application of each is counted. The two must read 1: the Poll
// primitives and the AIO calls alike are records that arm themselves
// (an AIO call read 2 when its park bound its arm per application).
func TestAllocApplyPrimitive(t *testing.T) {
	skipAllocPinUnderRace(t)
	r := newRig(t, vclock.NewVirtual(), 1)
	lfd, err := r.k.Listen("pins:1", 4)
	if err != nil {
		t.Fatal(err)
	}
	fd, _ := r.k.SocketPair()
	f, err := r.fs.Create("pins", 1<<16, true)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 64)
	cell := &p
	for _, tc := range []struct {
		name            string
		direct, wrapped float64
	}{
		{"SockAccept", applyAllocs(r.io.SockAccept(lfd)), applyAllocs(sockAcceptVia(r.io, lfd))},
		{"SockRead", applyAllocs(r.io.SockRead(fd, p)), applyAllocs(sockReadVia(r.io, fd, p))},
		{"SockReadCell", applyAllocs(r.io.SockReadCell(fd, cell)), applyAllocs(sockReadCellVia(r.io, fd, cell))},
		{"SockReadFull", applyAllocs(r.io.SockReadFull(fd, p)), applyAllocs(sockReadFullVia(r.io, fd, p))},
		{"SockSend", applyAllocs(r.io.SockSend(fd, p)), applyAllocs(sockSendVia(r.io, fd, p))},
		{"SockSendCell", applyAllocs(r.io.SockSendCell(fd, cell, true)), applyAllocs(sockSendCellVia(r.io, fd, cell))},
		{"AIORead", applyAllocs(r.io.AIORead(f, 0, p)), applyAllocs(aioReadVia(r.io, f, p))},
		{"AIOReadResult", applyAllocs(r.io.AIOReadResult(f, 0, p)), applyAllocs(aioReadResultVia(r.io, f, p))},
		{"AIOWrite", applyAllocs(r.io.AIOWrite(f, 0, p)), applyAllocs(aioWriteVia(r.io, f, p))},
	} {
		if tc.direct != 1 || tc.wrapped != 1 {
			t.Errorf("%s: an application allocates %.2f objects, %.2f through a wrapper; want 1 both",
				tc.name, tc.direct, tc.wrapped)
		}
	}
}

// A Poll primitive applied and parked once allocates its record and
// nothing more: the record is its park's arm and holds the waiter the
// kernel links (make core-alloc; 2 while the first park bound a watch
// callback and grew the wait list's slice, 3 when it bound the arm as
// well). Two threads trade one byte; the answering
// thread applies its SockReadCell afresh for every message, through
// reapply, and finds its socket empty each time, while everything else
// is applied once, so a message costs that application and park alone.
func TestAllocFirstPark(t *testing.T) {
	skipAllocPinUnderRace(t)
	r := newRig(t, vclock.NewVirtual(), 1)
	a, b := r.k.SocketPair()
	ping, pong := []byte{1}, []byte{2}
	inA, inB := make([]byte, 1), make([]byte, 1)
	const msgs = 2000
	serve := func(k func(core.Unit) core.Trace) core.Trace {
		read := r.io.SockReadCell(a, &inA)(func(int) core.Trace { return k(core.Unit{}) })
		return r.io.SockSendCell(a, &ping, false)(func(int) core.Trace { return read })
	}
	answer := reapply(r.io.SockReadCell(b, &inB), r.io.SockSendCell(b, &pong, false))
	parks := func() int64 { return r.rt.Stats().Snapshot().Counter("parks") }
	var runs int64
	p0 := parks()
	total := testing.AllocsPerRun(10, func() {
		runs++
		r.rt.Spawn(core.ForN(msgs, func(int) core.M[core.Unit] { return answer }))
		r.rt.Run(core.RepeatN(msgs, serve))
	})
	if got, want := parks()-p0, runs*2*msgs; got != want {
		t.Fatalf("%d parks in %d runs, want %d: a read found data waiting", got, runs, want)
	}
	if per := total / msgs; per > 1.05 {
		t.Fatalf("a read applied and parked once allocates %.2f objects (%.0f per run), want 1: its record", per, total)
	} else {
		t.Logf("a read applied and parked once: %.3f allocs", per)
	}
}

// reapply is a unit computation that applies m afresh each time it is
// applied, then continues through then, which is applied once: it
// allocates nothing of its own, so ForN forcing it counts m's application.
func reapply(m, then core.M[int]) core.M[core.Unit] {
	s := &reapplied{m: m}
	s.got = s.next
	s.then = then(s.done)
	return s.apply
}

type reapplied struct {
	m    core.M[int]
	got  func(int) core.Trace
	then core.Trace
	k    func(core.Unit) core.Trace
}

func (s *reapplied) apply(k func(core.Unit) core.Trace) core.Trace { s.k = k; return s.m(s.got) }
func (s *reapplied) next(int) core.Trace                           { return s.then }
func (s *reapplied) done(int) core.Trace                           { return s.k(core.Unit{}) }

// applyAllocs counts the allocations of one application of m.
func applyAllocs[A any](m core.M[A]) float64 {
	k := func(A) core.Trace { return nil }
	return testing.AllocsPerRun(100, func() { m(k) })
}

//go:noinline
func sockAcceptVia(io *IO, fd kernel.FD) core.M[kernel.FD] { return io.SockAccept(fd) }

//go:noinline
func sockReadVia(io *IO, fd kernel.FD, p []byte) core.M[int] { return io.SockRead(fd, p) }

//go:noinline
func sockReadCellVia(io *IO, fd kernel.FD, cell *[]byte) core.M[int] {
	return io.SockReadCell(fd, cell)
}

//go:noinline
func sockReadFullVia(io *IO, fd kernel.FD, p []byte) core.M[int] { return io.SockReadFull(fd, p) }

//go:noinline
func sockSendVia(io *IO, fd kernel.FD, p []byte) core.M[int] { return io.SockSend(fd, p) }

//go:noinline
func sockSendCellVia(io *IO, fd kernel.FD, cell *[]byte) core.M[int] {
	return io.SockSendCell(fd, cell, true)
}

//go:noinline
func aioReadVia(io *IO, f *kernel.File, p []byte) core.M[int] { return io.AIORead(f, 0, p) }

//go:noinline
func aioReadResultVia(io *IO, f *kernel.File, p []byte) core.M[Result[int]] {
	return io.AIOReadResult(f, 0, p)
}

//go:noinline
func aioWriteVia(io *IO, f *kernel.File, p []byte) core.M[int] { return io.AIOWrite(f, 0, p) }

// Every read and send primitive, applied once and forced message after
// message, allocates nothing per message or per park: two threads trade
// one byte through each pair, and every read finds its socket empty and
// parks. A message of the AIO calls submits a disk request, which the disk
// model allocates; their record's own part is bound at the first arm.
func TestAllocReplayPrimitive(t *testing.T) {
	skipAllocPinUnderRace(t)
	type mk func(io *IO, fd kernel.FD, buf *[]byte) core.M[int]
	send := mk(func(io *IO, fd kernel.FD, buf *[]byte) core.M[int] { return io.SockSend(fd, *buf) })
	sendCell := mk(func(io *IO, fd kernel.FD, buf *[]byte) core.M[int] { return io.SockSendCell(fd, buf, false) })
	read := mk(func(io *IO, fd kernel.FD, buf *[]byte) core.M[int] { return io.SockRead(fd, *buf) })
	readCell := mk(func(io *IO, fd kernel.FD, buf *[]byte) core.M[int] { return io.SockReadCell(fd, buf) })
	readFull := mk(func(io *IO, fd kernel.FD, buf *[]byte) core.M[int] { return io.SockReadFull(fd, *buf) })
	for _, tc := range []struct {
		name       string
		send, read mk
	}{
		{"SockSend/SockRead", send, read},
		{"SockSend/SockReadFull", send, readFull},
		{"SockSendCell/SockReadCell", sendCell, readCell},
	} {
		r := newRig(t, vclock.NewVirtual(), 1)
		a, b := r.k.SocketPair()
		const msgs = 2000
		// side is one end of the exchange, both halves applied once: send
		// then read when it serves first, read then send when it answers.
		side := func(fd kernel.FD, serves bool) core.M[core.Unit] {
			out, in := []byte{1}, make([]byte, 1)
			return func(k func(core.Unit) core.Trace) core.Trace {
				var s, rd core.Trace
				if serves {
					rd = tc.read(r.io, fd, &in)(func(int) core.Trace { return k(core.Unit{}) })
					s = tc.send(r.io, fd, &out)(func(int) core.Trace { return rd })
					return s
				}
				s = tc.send(r.io, fd, &out)(func(int) core.Trace { return k(core.Unit{}) })
				rd = tc.read(r.io, fd, &in)(func(int) core.Trace { return s })
				return rd
			}
		}
		parks := func() int64 { return r.rt.Stats().Snapshot().Counter("parks") }
		var runs int64
		p0 := parks()
		total := testing.AllocsPerRun(5, func() {
			runs++
			r.rt.Spawn(core.RepeatN(msgs, side(b, false)))
			r.rt.Run(core.RepeatN(msgs, side(a, true)))
		})
		if got, want := parks()-p0, runs*2*msgs; got != want {
			t.Errorf("%s: %d parks in %d runs, want %d", tc.name, got, runs, want)
		}
		if per := total / msgs; per > 0.05 {
			t.Errorf("%s: %.3f allocs/message (%.0f per run), want 0", tc.name, per, total)
		} else {
			t.Logf("%s: %.3f allocs/message (%.0f per run)", tc.name, per, total)
		}
	}
}

// An AIO record's completion resumes its park once: a second completion
// for the same park panics before its continuation runs, as a second
// resume of Suspend's does.
func TestAIOSecondCompletionPanics(t *testing.T) {
	r := newRig(t, vclock.NewVirtual(), 1)
	f, err := r.fs.Create("blob", 4096, false)
	if err != nil {
		t.Fatal(err)
	}
	var rec *aio
	resumed := 0
	read := func(k func(int) core.Trace) core.Trace {
		rec = &aio{io: r.io, f: f, p: make([]byte, 512), op: (*kernel.FS).AIORead, k: func(n int) core.Trace {
			resumed++
			return k(n)
		}}
		return rec.park()
	}
	r.rt.Run(core.Then(core.M[int](read), core.Skip))
	func() {
		defer func() {
			if v := recover(); !strings.Contains(fmt.Sprint(v), "completed twice") {
				t.Errorf("second completion: recovered %v, want the completed-twice panic", v)
			}
		}()
		rec.complete(512, nil)
	}()
	if resumed != 1 {
		t.Fatalf("continuation ran %d times, want 1", resumed)
	}
}
