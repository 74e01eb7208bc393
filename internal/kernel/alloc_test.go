package kernel

import (
	"testing"

	"hybrid/internal/bufpool"
	"hybrid/internal/disk"
	"hybrid/internal/vclock"
	"hybrid/internal/waitq"
)

// TestAllocSockLend pins the lent send path: a 16 KB WriteRef on a stream
// socket, drained by two 8 KB reads, allocates nothing and draws no ring
// segment — the ring references the bytes, and only the reader copies.
func TestAllocSockLend(t *testing.T) {
	k := newKernel()
	a, b := k.SocketPair()
	body := make([]byte, 16<<10)
	rbuf := make([]byte, 8<<10)
	gets := bufpool.SegGets()
	n := testing.AllocsPerRun(200, func() {
		if n, err := k.WriteRef(a, body); n != len(body) || err != nil {
			t.Fatalf("WriteRef = (%d, %v)", n, err)
		}
		for i := 0; i < 2; i++ {
			if n, err := k.Read(b, rbuf); n != len(rbuf) || err != nil {
				t.Fatalf("Read = (%d, %v)", n, err)
			}
		}
	})
	if n != 0 {
		t.Fatalf("lent 16 KB send and drain allocates %v per run, want 0", n)
	}
	if got := bufpool.SegGets() - gets; got != 0 {
		t.Fatalf("lent sends drew %d ring segments, want 0", got)
	}
}

// TestAllocSockDiscard pins the discarding read path: a response-shaped
// stream — a copied head, then a lent 16 KB body — drained by one 4 KB
// read and one discard of the rest allocates nothing and draws no ring
// segment beyond the head's: the discard drops the lent entry without
// copying it.
func TestAllocSockDiscard(t *testing.T) {
	k := newKernel()
	a, b := k.SocketPair()
	head := make([]byte, 128)
	body := make([]byte, 16<<10)
	rbuf := make([]byte, bufpool.SegSize)
	runs, gets := 0, bufpool.SegGets()
	n := testing.AllocsPerRun(200, func() {
		runs++
		if n, err := k.Write(a, head); n != len(head) || err != nil {
			t.Fatalf("Write = (%d, %v)", n, err)
		}
		if n, err := k.WriteRef(a, body); n != len(body) || err != nil {
			t.Fatalf("WriteRef = (%d, %v)", n, err)
		}
		if n, err := k.Read(b, rbuf); n != len(rbuf) || err != nil {
			t.Fatalf("Read = (%d, %v)", n, err)
		}
		rest := len(head) + len(body) - len(rbuf)
		if n, err := k.Discard(b, rest); n != rest || err != nil {
			t.Fatalf("Discard = (%d, %v), want %d", n, err, rest)
		}
	})
	if n != 0 {
		t.Fatalf("head read and body discard allocate %v per run, want 0", n)
	}
	if got := bufpool.SegGets() - gets; got != uint64(runs) {
		t.Fatalf("%d runs drew %d ring segments, want one each for the head", runs, got)
	}
}

// TestAllocFirstWatch pins the wait list's registration: the first watch
// on a fresh pipe, and the hang-up that fires it, allocate nothing. The
// waiter is the caller's, linked by value, so the list grows no storage.
func TestAllocFirstWatch(t *testing.T) {
	k := newKernel()
	const runs = 100
	var pipes [runs + 1][2]FD // AllocsPerRun adds one warm-up run
	for i := range pipes {
		pipes[i][0], pipes[i][1] = k.NewPipe(0)
	}
	var w waitq.Waiter
	var wakes countWaker
	w.Target = &wakes
	i := 0
	n := testing.AllocsPerRun(runs, func() {
		r, wr := pipes[i][0], pipes[i][1]
		i++
		if err := k.Watch(r, EventRead, &w); err != nil {
			t.Fatal(err)
		}
		if err := k.Close(wr); err != nil {
			t.Fatal(err)
		}
	})
	if wakes != runs+1 || Event(w.Event) != EventRead|EventHup {
		t.Fatalf("%d wakes, last with %v; want %d with RH", wakes, Event(w.Event), runs+1)
	}
	if n != 0 {
		t.Fatalf("a first watch and its fire allocate %v per run, want 0", n)
	}
}

// countWaker counts its wakes.
type countWaker int

func (c *countWaker) Wake() { *c++ }

// TestAllocAIOReadCallback pins FS.AIORead's callback form, the one the
// benchmark's kernel.aio_read probe calls, at three objects per read:
// the request record its adapter makes, with the disk request inside it,
// and the record's two completions, bound at its submission (the request
// and two closures while the form built its disk.Request itself). A
// record kept and submitted again allocates nothing.
func TestAllocAIOReadCallback(t *testing.T) {
	if bufpool.RaceChecked {
		t.Skip("allocation counts differ under the race detector")
	}
	clk := vclock.NewVirtual()
	fs := NewFS(disk.New(clk, disk.DefaultGeometry()))
	f, err := fs.Create("probe", 16<<10, false)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 16<<10)
	done := 0
	count := func(n int, err error) {
		if n != len(p) || err != nil {
			t.Fatalf("read = (%d, %v)", n, err)
		}
		done++
	}
	perCall := testing.AllocsPerRun(200, func() {
		clk.Enter()
		fs.AIORead(f, 0, p, count)
		clk.Exit() // the last hold: time advances and the completion fires
	})
	if perCall > 3 {
		t.Fatalf("FS.AIORead allocates %.2f objects per read, want <= 3", perCall)
	}
	t.Logf("FS.AIORead: %.2f objects per read", perCall)
	rec := &AIO{Done: count}
	perRecord := testing.AllocsPerRun(200, func() {
		clk.Enter()
		rec.Read(fs, f, 0, p, 0)
		clk.Exit()
	})
	if perRecord != 0 {
		t.Fatalf("a kept AIO record allocates %.2f objects per read, want 0", perRecord)
	}
	if done != 2*201 {
		t.Fatalf("%d reads completed, want %d", done, 2*201)
	}
}
