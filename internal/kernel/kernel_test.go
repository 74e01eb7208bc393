package kernel

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"hybrid/internal/disk"
	"hybrid/internal/vclock"
)

func newKernel() *Kernel { return New(vclock.NewReal()) }

// ---------------------------------------------------------------------------
// Pipes
// ---------------------------------------------------------------------------

func TestPipeWriteThenRead(t *testing.T) {
	k := newKernel()
	r, w := k.NewPipe(0)
	n, err := k.Write(w, []byte("hello"))
	if err != nil || n != 5 {
		t.Fatalf("Write = %d, %v", n, err)
	}
	buf := make([]byte, 16)
	n, err = k.Read(r, buf)
	if err != nil || string(buf[:n]) != "hello" {
		t.Fatalf("Read = %q, %v", buf[:n], err)
	}
}

func TestPipeEmptyReadEAGAIN(t *testing.T) {
	k := newKernel()
	r, _ := k.NewPipe(0)
	_, err := k.Read(r, make([]byte, 4))
	if !errors.Is(err, ErrAgain) {
		t.Fatalf("read of empty pipe: %v, want EAGAIN", err)
	}
}

func TestPipeFullWriteEAGAIN(t *testing.T) {
	k := newKernel()
	_, w := k.NewPipe(8)
	if n, err := k.Write(w, make([]byte, 16)); err != nil || n != 8 {
		t.Fatalf("first write = %d, %v; want short write of 8", n, err)
	}
	_, err := k.Write(w, []byte("x"))
	if !errors.Is(err, ErrAgain) {
		t.Fatalf("write to full pipe: %v, want EAGAIN", err)
	}
}

func TestPipeEOFAfterWriterClose(t *testing.T) {
	k := newKernel()
	r, w := k.NewPipe(0)
	if _, err := k.Write(w, []byte("ab")); err != nil {
		t.Fatal(err)
	}
	if err := k.Close(w); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	n, err := k.Read(r, buf)
	if err != nil || n != 2 {
		t.Fatalf("drain read = %d, %v", n, err)
	}
	n, err = k.Read(r, buf)
	if n != 0 || err != nil {
		t.Fatalf("EOF read = %d, %v; want 0, nil", n, err)
	}
}

func TestPipeEPIPEAfterReaderClose(t *testing.T) {
	k := newKernel()
	r, w := k.NewPipe(0)
	if err := k.Close(r); err != nil {
		t.Fatal(err)
	}
	_, err := k.Write(w, []byte("x"))
	if !errors.Is(err, ErrPipe) {
		t.Fatalf("write after reader close: %v, want EPIPE", err)
	}
}

func TestPipeWrongDirection(t *testing.T) {
	k := newKernel()
	r, w := k.NewPipe(0)
	if _, err := k.Write(r, []byte("x")); !errors.Is(err, ErrInvalid) {
		t.Fatalf("write to read end: %v", err)
	}
	if _, err := k.Read(w, make([]byte, 1)); !errors.Is(err, ErrInvalid) {
		t.Fatalf("read from write end: %v", err)
	}
}

func TestBadFD(t *testing.T) {
	k := newKernel()
	if _, err := k.Read(99, make([]byte, 1)); !errors.Is(err, ErrBadFD) {
		t.Fatalf("read bad fd: %v", err)
	}
	if err := k.Close(99); !errors.Is(err, ErrBadFD) {
		t.Fatalf("close bad fd: %v", err)
	}
	if k.OpenFDs() != 0 {
		t.Fatalf("OpenFDs = %d, want 0", k.OpenFDs())
	}
}

func TestPipeRingWraparound(t *testing.T) {
	// Interleaved reads and writes force the ring indices to wrap; bytes
	// must come out in order.
	k := newKernel()
	r, w := k.NewPipe(7)
	var wrote, got []byte
	next := byte(0)
	buf := make([]byte, 3)
	for i := 0; i < 50; i++ {
		chunk := []byte{next, next + 1}
		next += 2
		if n, err := k.Write(w, chunk); err == nil {
			wrote = append(wrote, chunk[:n]...)
			if n < len(chunk) {
				next-- // second byte not accepted
			}
		} else if !errors.Is(err, ErrAgain) {
			t.Fatal(err)
		} else {
			next -= 2
		}
		if n, err := k.Read(r, buf); err == nil {
			got = append(got, buf[:n]...)
		} else if !errors.Is(err, ErrAgain) {
			t.Fatal(err)
		}
	}
	for {
		n, err := k.Read(r, buf)
		if errors.Is(err, ErrAgain) || n == 0 {
			break
		}
		got = append(got, buf[:n]...)
	}
	if !bytes.Equal(wrote, got) {
		t.Fatalf("FIFO violated: wrote %v got %v", wrote, got)
	}
}

// Property: for any sequence of write/read chunk sizes, bytes are
// conserved and delivered in FIFO order.
func TestPipeFIFOProperty(t *testing.T) {
	check := func(sizes []uint8) bool {
		k := newKernel()
		r, w := k.NewPipe(64)
		var wrote, got []byte
		seq := byte(0)
		for _, s := range sizes {
			n := int(s % 32)
			chunk := make([]byte, n)
			for i := range chunk {
				chunk[i] = seq + byte(i)
			}
			wn, err := k.Write(w, chunk)
			if err != nil && !errors.Is(err, ErrAgain) {
				return false
			}
			wrote = append(wrote, chunk[:wn]...)
			seq += byte(wn) // unaccepted bytes are re-numbered next round
			buf := make([]byte, int(s%16)+1)
			rn, err := k.Read(r, buf)
			if err != nil && !errors.Is(err, ErrAgain) {
				return false
			}
			got = append(got, buf[:rn]...)
		}
		for {
			buf := make([]byte, 16)
			rn, err := k.Read(r, buf)
			if err != nil || rn == 0 {
				break
			}
			got = append(got, buf[:rn]...)
		}
		return bytes.Equal(wrote, got)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------------
// Epoll
// ---------------------------------------------------------------------------

// recorder is a watch callback that keeps what it was handed, for tests
// that check what fired, and how often, after each state change.
type recorder struct {
	mu  sync.Mutex
	evs []Event
}

func (r *recorder) fn(ev Event) {
	r.mu.Lock()
	r.evs = append(r.evs, ev)
	r.mu.Unlock()
}

// take returns the events delivered since the last take.
func (r *recorder) take() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	evs := r.evs
	r.evs = nil
	return evs
}

// watchFD registers a fresh recorder on fd.
func watchFD(t *testing.T, k *Kernel, fd FD, mask Event) *recorder {
	t.Helper()
	r := &recorder{}
	if err := k.Watch(fd, mask, r.fn); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestEpollImmediateReadiness(t *testing.T) {
	k := newKernel()
	r, w := k.NewPipe(0)
	if _, err := k.Write(w, []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Already readable: the watch fires inside Watch itself.
	if evs := watchFD(t, k, r, EventRead).take(); len(evs) != 1 || evs[0]&EventRead == 0 {
		t.Fatalf("events = %v", evs)
	}
}

func TestEpollFiresOnWrite(t *testing.T) {
	k := newKernel()
	r, w := k.NewPipe(0)
	rec := watchFD(t, k, r, EventRead)
	if len(rec.take()) != 0 {
		t.Fatal("event fired before data")
	}
	if _, err := k.Write(w, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if evs := rec.take(); len(evs) != 1 || evs[0]&EventRead == 0 {
		t.Fatalf("events = %v", evs)
	}
}

func TestEpollOneShot(t *testing.T) {
	k := newKernel()
	r, w := k.NewPipe(0)
	rec := watchFD(t, k, r, EventRead)
	k.Write(w, []byte("a"))
	if evs := rec.take(); len(evs) != 1 {
		t.Fatalf("first write: %d events", len(evs))
	}
	k.Write(w, []byte("b"))
	if evs := rec.take(); len(evs) != 0 {
		t.Fatalf("one-shot watch fired twice: %v", evs)
	}
}

func TestEpollWriteReadiness(t *testing.T) {
	k := newKernel()
	r, w := k.NewPipe(4)
	if _, err := k.Write(w, make([]byte, 4)); err != nil {
		t.Fatal(err)
	}
	rec := watchFD(t, k, w, EventWrite)
	if len(rec.take()) != 0 {
		t.Fatal("full pipe reported writable")
	}
	if _, err := k.Read(r, make([]byte, 2)); err != nil {
		t.Fatal(err)
	}
	if evs := rec.take(); len(evs) != 1 || evs[0]&EventWrite == 0 {
		t.Fatalf("events = %v", evs)
	}
}

func TestEpollHupOnClose(t *testing.T) {
	k := newKernel()
	r, w := k.NewPipe(0)
	rec := watchFD(t, k, r, EventRead)
	k.Close(w)
	if evs := rec.take(); len(evs) != 1 || evs[0]&EventHup == 0 {
		t.Fatalf("events = %v, want HUP", evs)
	}
}

// A parked watch runs on the goroutine whose call made the descriptor
// ready, and not before.
func TestEpollWaitBlocksUntilEvent(t *testing.T) {
	k := newKernel()
	r, w := k.NewPipe(0)
	done := make(chan Event, 1)
	if err := k.Watch(r, EventRead, func(ev Event) { done <- ev }); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-done:
		t.Fatalf("watch fired before any write: %v", ev)
	default:
	}
	wrote := make(chan struct{})
	go func() {
		k.Write(w, []byte("x"))
		close(wrote)
	}()
	if ev := <-done; ev&EventRead == 0 {
		t.Fatalf("event = %v", ev)
	}
	<-wrote
}

func TestEpollManyIdleWatches(t *testing.T) {
	// The Figure 18 situation: thousands of idle watches on empty pipes
	// must not produce events, and one active pipe must.
	k := newKernel()
	const idle = 10000
	var fired []int
	for i := 0; i < idle; i++ {
		r, _ := k.NewPipe(0)
		if err := k.Watch(r, EventRead, func(Event) { fired = append(fired, i) }); err != nil {
			t.Fatal(err)
		}
	}
	r, w := k.NewPipe(0)
	if err := k.Watch(r, EventRead, func(Event) { fired = append(fired, -1) }); err != nil {
		t.Fatal(err)
	}
	k.Write(w, []byte("x"))
	if len(fired) != 1 || fired[0] != -1 {
		t.Fatalf("fired %v, want exactly the active one", fired)
	}
}

func TestEpollRegisterBadFD(t *testing.T) {
	k := newKernel()
	rec := &recorder{}
	if err := k.Watch(1234, EventRead, rec.fn); !errors.Is(err, ErrBadFD) {
		t.Fatalf("watch bad fd: %v", err)
	}
	if evs := rec.take(); len(evs) != 0 {
		t.Fatalf("bad-fd watch fired: %v", evs)
	}
}

// Closing a listener wakes the accept watch parked on it, with hang-up:
// an accept loop blocked on a listener that goes away must not sleep on.
func TestEpollCloseWakesWaiter(t *testing.T) {
	k := newKernel()
	lfd, _ := k.Listen("gone:1", 4)
	rec := watchFD(t, k, lfd, EventRead)
	if evs := rec.take(); len(evs) != 0 {
		t.Fatalf("idle listener reported ready: %v", evs)
	}
	if err := k.Close(lfd); err != nil {
		t.Fatal(err)
	}
	if evs := rec.take(); len(evs) != 1 || evs[0]&EventHup == 0 {
		t.Fatalf("events = %v, want one HUP on the closed listener's waiter", evs)
	}
}

// ---------------------------------------------------------------------------
// Sockets
// ---------------------------------------------------------------------------

func TestListenConnectAccept(t *testing.T) {
	k := newKernel()
	lfd, err := k.Listen("srv:80", 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Accept(lfd); !errors.Is(err, ErrAgain) {
		t.Fatalf("accept with empty backlog: %v", err)
	}
	cfd, err := k.Connect("srv:80")
	if err != nil {
		t.Fatal(err)
	}
	sfd, err := k.Accept(lfd)
	if err != nil {
		t.Fatal(err)
	}
	// Bidirectional transfer.
	if _, err := k.Write(cfd, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if n, err := k.Read(sfd, buf); err != nil || string(buf[:n]) != "ping" {
		t.Fatalf("server read %q, %v", buf[:n], err)
	}
	if _, err := k.Write(sfd, []byte("pong")); err != nil {
		t.Fatal(err)
	}
	if n, err := k.Read(cfd, buf); err != nil || string(buf[:n]) != "pong" {
		t.Fatalf("client read %q, %v", buf[:n], err)
	}
}

func TestConnectNoListener(t *testing.T) {
	k := newKernel()
	if _, err := k.Connect("nowhere:1"); !errors.Is(err, ErrConnRefused) {
		t.Fatalf("connect: %v", err)
	}
}

func TestListenAddrInUse(t *testing.T) {
	k := newKernel()
	if _, err := k.Listen("a:1", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Listen("a:1", 1); !errors.Is(err, ErrAddrInUse) {
		t.Fatalf("second listen: %v", err)
	}
}

func TestBacklogOverflowRefused(t *testing.T) {
	k := newKernel()
	if _, err := k.Listen("b:1", 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := k.Connect("b:1"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.Connect("b:1"); !errors.Is(err, ErrConnRefused) {
		t.Fatalf("overflow connect: %v", err)
	}
	// The refusal is counted as back-pressure, distinct from no-listener
	// and closed-listener refusals.
	if got := k.Snapshot().BacklogRejects; got != 1 {
		t.Fatalf("BacklogRejects = %d, want 1", got)
	}
	if _, err := k.Connect("nowhere:0"); !errors.Is(err, ErrConnRefused) {
		t.Fatalf("no-listener connect: %v", err)
	}
	if got := k.Snapshot().BacklogRejects; got != 1 {
		t.Fatalf("BacklogRejects counted a no-listener refusal: %d", got)
	}
	snap := k.Metrics().Snapshot()
	if got := snap.Counter("backlog_rejects"); got != 1 {
		t.Fatalf("backlog_rejects metric = %d, want 1", got)
	}
}

// Regression (PR 3): Listen used to clamp any backlog <= 0 to the default,
// so a caller whose computed limit went negative listened with a 128-deep
// backlog instead of failing. Zero still selects the default.
func TestListenBacklogValidation(t *testing.T) {
	k := newKernel()
	if _, err := k.Listen("neg:1", -1); !errors.Is(err, ErrInvalid) {
		t.Fatalf("negative backlog: %v, want EINVAL", err)
	}
	// The failed listen must not claim the address.
	lfd, err := k.Listen("neg:1", 0)
	if err != nil {
		t.Fatalf("zero backlog (default): %v", err)
	}
	l := func() *Listener {
		e, err := k.lookup(lfd)
		if err != nil {
			t.Fatal(err)
		}
		return e.(*Listener)
	}()
	if l.max != DefaultBacklog {
		t.Fatalf("zero backlog gave capacity %d, want DefaultBacklog %d", l.max, DefaultBacklog)
	}
}

func TestListenerEpollReadiness(t *testing.T) {
	k := newKernel()
	lfd, _ := k.Listen("c:1", 4)
	rec := watchFD(t, k, lfd, EventRead)
	if len(rec.take()) != 0 {
		t.Fatal("listener ready before any connection")
	}
	if _, err := k.Connect("c:1"); err != nil {
		t.Fatal(err)
	}
	if evs := rec.take(); len(evs) != 1 {
		t.Fatalf("listener events = %d, want 1", len(evs))
	}
}

func TestSocketCloseGivesPeerEOFAndEPIPE(t *testing.T) {
	k := newKernel()
	a, b := k.SocketPair()
	k.Write(a, []byte("bye"))
	k.Close(a)
	buf := make([]byte, 8)
	if n, err := k.Read(b, buf); err != nil || string(buf[:n]) != "bye" {
		t.Fatalf("drain: %q, %v", buf[:n], err)
	}
	if n, err := k.Read(b, buf); n != 0 || err != nil {
		t.Fatalf("EOF: %d, %v", n, err)
	}
	if _, err := k.Write(b, []byte("x")); !errors.Is(err, ErrPipe) {
		t.Fatalf("write to closed peer: %v", err)
	}
}

func TestListenerCloseRemovesAddress(t *testing.T) {
	k := newKernel()
	lfd, _ := k.Listen("d:1", 1)
	if err := k.Close(lfd); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Connect("d:1"); !errors.Is(err, ErrConnRefused) {
		t.Fatalf("connect after close: %v", err)
	}
	if _, err := k.Listen("d:1", 1); err != nil {
		t.Fatalf("re-listen after close: %v", err)
	}
}

// A watch names one direction and parks on that direction's wait list
// only: a mask with both is refused, and a read watch and a write watch
// on one socket each fire once, on their own direction's state change.
func TestSocketWatchNamesOneDirection(t *testing.T) {
	k := newKernel()
	a, b := k.SocketPair()
	// Fill a's send buffer so EventWrite is not immediately ready.
	for {
		if _, err := k.Write(a, make([]byte, 4096)); errors.Is(err, ErrAgain) {
			break
		}
	}
	both := &recorder{}
	if err := k.Watch(a, EventRead|EventWrite, both.fn); !errors.Is(err, ErrInvalid) {
		t.Fatalf("watch for both directions: %v, want ErrInvalid", err)
	}
	rd := watchFD(t, k, a, EventRead)
	wr := watchFD(t, k, a, EventWrite)
	if len(rd.take())+len(wr.take()) != 0 {
		t.Fatal("watch fired with nothing ready")
	}
	k.Read(b, make([]byte, DefaultSocketBuffer)) // a writable
	if evs := wr.take(); len(evs) != 1 || evs[0]&EventWrite == 0 {
		t.Fatalf("write watch: %v, want one EventWrite", evs)
	}
	if evs := rd.take(); len(evs) != 0 {
		t.Fatalf("read watch woken by write readiness: %v", evs)
	}
	k.Write(b, []byte("data")) // a readable
	k.Write(b, []byte("more"))
	if evs := rd.take(); len(evs) != 1 || evs[0]&EventRead == 0 {
		t.Fatalf("read watch: %v, want one EventRead", evs)
	}
	if evs := both.take(); len(evs) != 0 {
		t.Fatalf("refused watch fired: %v", evs)
	}
}

// ---------------------------------------------------------------------------
// Stats, readiness probes
// ---------------------------------------------------------------------------

func TestKernelStats(t *testing.T) {
	k := newKernel()
	r, w := k.NewPipe(0)
	k.Write(w, []byte("abcd"))
	k.Read(r, make([]byte, 4))
	k.Read(r, make([]byte, 4)) // EAGAIN
	s := k.Snapshot()
	if s.Writes != 1 || s.Reads != 2 || s.BytesRead != 4 || s.BytesWrote != 4 || s.EAGAINs != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestReadinessProbe(t *testing.T) {
	k := newKernel()
	r, w := k.NewPipe(4)
	ev, err := k.Readiness(r)
	if err != nil || ev != 0 {
		t.Fatalf("empty pipe read end: %v %v", ev, err)
	}
	ev, _ = k.Readiness(w)
	if ev&EventWrite == 0 {
		t.Fatalf("empty pipe write end: %v", ev)
	}
	k.Write(w, make([]byte, 4))
	if ev, _ = k.Readiness(r); ev&EventRead == 0 {
		t.Fatalf("nonempty pipe read end: %v", ev)
	}
	if ev, _ = k.Readiness(w); ev&EventWrite != 0 {
		t.Fatalf("full pipe write end: %v", ev)
	}
}

// ---------------------------------------------------------------------------
// Filesystem
// ---------------------------------------------------------------------------

func newFS(t *testing.T) (*FS, *vclock.VirtualClock) {
	t.Helper()
	clk := vclock.NewVirtual()
	d := disk.New(clk, disk.DefaultGeometry())
	return NewFS(d), clk
}

func TestFSCreateOpen(t *testing.T) {
	fs, _ := newFS(t)
	f, err := fs.Create("a.txt", 100, true)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 100 || f.Name() != "a.txt" {
		t.Fatalf("file = %q size %d", f.Name(), f.Size())
	}
	if _, err := fs.Create("a.txt", 1, true); err == nil {
		t.Fatal("duplicate create succeeded")
	}
	g, err := fs.Open("a.txt")
	if err != nil || g != f {
		t.Fatalf("open: %v", err)
	}
	if _, err := fs.Open("missing"); err == nil {
		t.Fatal("open of missing file succeeded")
	}
	if !fs.Exists("a.txt") || fs.Exists("b") {
		t.Fatal("Exists wrong")
	}
}

func TestFSAIOReadMaterialized(t *testing.T) {
	fs, _ := newFS(t)
	f, _ := fs.Create("data", 10, true)
	if _, err := f.WriteAt([]byte("0123456789"), 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	var gotN int
	var gotErr error
	fs.AIORead(f, 3, buf, func(n int, err error) { gotN, gotErr = n, err })
	// Virtual clock: completion ran synchronously once the clock
	// quiesced (the submitting goroutine holds no busy count here).
	if gotErr != nil || gotN != 4 || string(buf) != "3456" {
		t.Fatalf("AIORead = %d %v %q", gotN, gotErr, buf)
	}
}

func TestFSAIOReadPastEOF(t *testing.T) {
	fs, _ := newFS(t)
	f, _ := fs.Create("data", 10, true)
	var gotN int
	fs.AIORead(f, 10, make([]byte, 4), func(n int, err error) { gotN = n })
	if gotN != 0 {
		t.Fatalf("read at EOF = %d", gotN)
	}
	// Short read at the boundary.
	var shortN int
	fs.AIORead(f, 8, make([]byte, 4), func(n int, err error) { shortN = n })
	if shortN != 2 {
		t.Fatalf("short read = %d, want 2", shortN)
	}
}

func TestFSPatternFile(t *testing.T) {
	fs, _ := newFS(t)
	f, _ := fs.Create("big", 1<<20, false)
	buf1 := make([]byte, 64)
	buf2 := make([]byte, 64)
	fs.AIORead(f, 12345, buf1, func(int, error) {})
	fs.AIORead(f, 12345, buf2, func(int, error) {})
	if !bytes.Equal(buf1, buf2) {
		t.Fatal("pattern file reads not deterministic")
	}
	for i, got := range buf1 {
		if want := PatternByte("big", 12345+int64(i)); got != want {
			t.Fatalf("byte %d of the read at 12345 = %#02x, PatternByte says %#02x", i, got, want)
		}
	}
	if _, err := f.WriteAt([]byte("x"), 0); err == nil {
		t.Fatal("write to pattern file succeeded")
	}
}

func TestFSAIOReadTakesDiskTime(t *testing.T) {
	fs, clk := newFS(t)
	f, _ := fs.Create("timed", 1<<20, false)
	before := clk.Now()
	done := false
	fs.AIORead(f, 0, make([]byte, 4096), func(int, error) { done = true })
	if !done {
		t.Fatal("completion did not run")
	}
	if clk.Now() == before {
		t.Fatal("AIO read consumed no virtual time")
	}
}

func TestFSAIOWrite(t *testing.T) {
	fs, _ := newFS(t)
	f, _ := fs.Create("w", 16, true)
	var gotN int
	fs.AIOWrite(f, 4, []byte("abcd"), func(n int, err error) { gotN = n })
	if gotN != 4 {
		t.Fatalf("AIOWrite = %d", gotN)
	}
	buf := make([]byte, 4)
	fs.AIORead(f, 4, buf, func(int, error) {})
	if string(buf) != "abcd" {
		t.Fatalf("read back %q", buf)
	}
}

func TestFSDeviceFull(t *testing.T) {
	clk := vclock.NewVirtual()
	g := disk.DefaultGeometry()
	g.Blocks = 4
	d := disk.New(clk, g)
	fs := NewFS(d)
	if _, err := fs.Create("a", 3*disk.BlockSize, false); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("b", 2*disk.BlockSize, false); err == nil {
		t.Fatal("create on full device succeeded")
	}
}

func TestEventStringAndMisc(t *testing.T) {
	if s := (EventRead | EventWrite | EventHup).String(); s != "RWH" {
		t.Fatalf("event string = %q", s)
	}
	if s := Event(0).String(); s != "-" {
		t.Fatalf("zero event = %q", s)
	}
	k := New(nil) // nil clock defaults to a real clock
	if k.Clock() == nil {
		t.Fatal("nil clock not defaulted")
	}
}

func TestListenerIsNotAStream(t *testing.T) {
	k := newKernel()
	lfd, _ := k.Listen("x:1", 1)
	if _, err := k.Read(lfd, make([]byte, 1)); !errors.Is(err, ErrInvalid) {
		t.Fatalf("read on listener: %v", err)
	}
	if _, err := k.Write(lfd, []byte("x")); !errors.Is(err, ErrInvalid) {
		t.Fatalf("write on listener: %v", err)
	}
	if _, err := k.Accept(r0(k)); !errors.Is(err, ErrInvalid) {
		t.Fatalf("accept on non-listener: %v", err)
	}
}

// r0 returns a pipe read end to misuse as an accept target.
func r0(k *Kernel) FD {
	r, _ := k.NewPipe(0)
	return r
}

func TestSocketWriteWatchParksUntilDrain(t *testing.T) {
	// Covers the socket addWatch write-side parking path.
	k := newKernel()
	a, b := k.SocketPair()
	for {
		if _, err := k.Write(a, make([]byte, 8192)); errors.Is(err, ErrAgain) {
			break
		}
	}
	rec := watchFD(t, k, a, EventWrite)
	if len(rec.take()) != 0 {
		t.Fatal("full socket reported writable")
	}
	k.Read(b, make([]byte, 1024))
	if evs := rec.take(); len(evs) != 1 {
		t.Fatalf("drain produced %d events", len(evs))
	}
}

func TestFSDiskAccessor(t *testing.T) {
	clk := vclock.NewVirtual()
	d := disk.New(clk, disk.DefaultGeometry())
	fs := NewFS(d)
	if fs.Disk() != d {
		t.Fatal("Disk() wrong")
	}
}

func TestAIOWriteOutOfRange(t *testing.T) {
	fs, _ := newFS(t)
	f, _ := fs.Create("w", 16, true)
	var gotErr error
	fs.AIOWrite(f, 99, []byte("x"), func(n int, err error) { gotErr = err })
	if gotErr == nil {
		t.Fatal("out-of-range AIOWrite succeeded")
	}
	fs.AIOWrite(f, -1, []byte("x"), func(n int, err error) { gotErr = err })
	if gotErr == nil {
		t.Fatal("negative-offset AIOWrite succeeded")
	}
	// Short write at the end of the file.
	var gotN int
	fs.AIOWrite(f, 14, []byte("abcd"), func(n int, err error) { gotN = n })
	if gotN != 2 {
		t.Fatalf("short AIOWrite = %d, want 2", gotN)
	}
}
