package disk

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"hybrid/internal/vclock"
)

func newDisk() (*Disk, *vclock.VirtualClock) {
	clk := vclock.NewVirtual()
	return New(clk, DefaultGeometry()), clk
}

func TestSingleRequestCompletes(t *testing.T) {
	d, clk := newDisk()
	done := false
	var at vclock.Time
	err := d.Submit(&Request{Block: 100, Count: 1, Done: func() {
		done = true
		at = clk.Now()
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("request did not complete")
	}
	want := d.Geometry().ServiceTime(0, 100, 1)
	if at != vclock.Time(want) {
		t.Fatalf("completed at %v, want %v", at, want)
	}
}

func TestRejectOutOfRange(t *testing.T) {
	d, _ := newDisk()
	if err := d.Submit(&Request{Block: -1, Count: 1}); err == nil {
		t.Fatal("negative block accepted")
	}
	if err := d.Submit(&Request{Block: d.Geometry().Blocks, Count: 1}); err == nil {
		t.Fatal("past-end block accepted")
	}
	if err := d.Submit(&Request{Block: 0, Count: 0}); err == nil {
		t.Fatal("zero count accepted")
	}
}

func TestElevatorOrdersByBlock(t *testing.T) {
	// Hold the clock busy while queueing, so all requests are pending
	// when the disk starts; completions must then follow C-LOOK order.
	d, clk := newDisk()
	clk.Enter()
	var order []int64
	for _, b := range []int64{5000, 100, 9000, 4000} {
		b := b
		if err := d.Submit(&Request{Block: b, Count: 1, Done: func() {
			order = append(order, b)
		}}); err != nil {
			t.Fatal(err)
		}
	}
	clk.Exit()
	// Head starts at 0; the first dispatch happens on the first Submit
	// (queue then holds only block 5000), so service begins there; the
	// rest are pending by the time it completes and are swept in C-LOOK
	// order from head=5001: 9000, then wrap to 100, 4000.
	want := []int64{5000, 9000, 100, 4000}
	if len(order) != 4 {
		t.Fatalf("completed %d requests", len(order))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("service order = %v, want %v", order, want)
		}
	}
}

func TestSeekTimeMonotone(t *testing.T) {
	g := DefaultGeometry()
	if g.SeekTime(0) != 0 {
		t.Fatal("zero-distance seek should be free")
	}
	prev := time.Duration(0)
	for _, dist := range []int64{1, 100, 10000, 1000000, g.Blocks} {
		s := g.SeekTime(dist)
		if s < prev {
			t.Fatalf("seek(%d) = %v < seek of shorter distance %v", dist, s, prev)
		}
		prev = s
	}
	if g.SeekTime(g.Blocks) > g.SeekMax+g.SeekMin {
		t.Fatalf("full-stroke seek %v exceeds SeekMax %v", g.SeekTime(g.Blocks), g.SeekMax)
	}
}

func TestAllRequestsEventuallyComplete(t *testing.T) {
	// No starvation: any batch of requests, all complete.
	check := func(blocks []uint32) bool {
		d, clk := newDisk()
		clk.Enter()
		completed := 0
		for _, b := range blocks {
			block := int64(b) % d.Geometry().Blocks
			if err := d.Submit(&Request{Block: block, Count: 1, Done: func() { completed++ }}); err != nil {
				return false
			}
		}
		clk.Exit()
		return completed == len(blocks) && d.QueueDepth() == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicSchedule(t *testing.T) {
	runOnce := func() (vclock.Time, []int64) {
		d, clk := newDisk()
		clk.Enter()
		rng := rand.New(rand.NewSource(42))
		var order []int64
		for i := 0; i < 200; i++ {
			b := rng.Int63n(d.Geometry().Blocks)
			d.Submit(&Request{Block: b, Count: 1, Done: func() { order = append(order, b) }})
		}
		clk.Exit()
		return clk.Now(), order
	}
	t1, o1 := runOnce()
	t2, o2 := runOnce()
	if t1 != t2 {
		t.Fatalf("virtual completion times differ: %v vs %v", t1, t2)
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatal("service orders differ between identical runs")
		}
	}
}

// TestDeeperQueueHigherThroughput is the mechanism behind Figure 17: with
// more requests pending at once, the elevator shortens seeks and aggregate
// throughput rises.
func TestDeeperQueueHigherThroughput(t *testing.T) {
	throughput := func(depth int) float64 {
		d, clk := newDisk()
		rng := rand.New(rand.NewSource(7))
		const total = 2000
		issued, completed := 0, 0
		var issue func()
		issue = func() {
			if issued >= total {
				return
			}
			issued++
			b := rng.Int63n(d.Geometry().Blocks)
			d.Submit(&Request{Block: b, Count: 1, Done: func() {
				completed++
				issue() // keep the queue at the target depth
			}})
		}
		clk.Enter()
		for i := 0; i < depth; i++ {
			issue()
		}
		clk.Exit()
		if completed != total {
			t.Fatalf("depth %d: completed %d of %d", depth, completed, total)
		}
		bytes := float64(total * BlockSize)
		return bytes / (float64(clk.Now()) / float64(time.Second))
	}
	t1 := throughput(1)
	t64 := throughput(64)
	t4096 := throughput(4096)
	if !(t64 > t1*1.05) {
		t.Fatalf("throughput did not rise with queue depth: depth1=%.0f depth64=%.0f", t1, t64)
	}
	if !(t4096 > t64) {
		t.Fatalf("throughput fell from depth 64 (%.0f) to 4096 (%.0f)", t64, t4096)
	}
	// Calibration: random 4 KB reads should land in the paper's band
	// (0.4–1.0 MB/s across the sweep).
	mb := 1024.0 * 1024.0
	if t1 < 0.3*mb || t1 > 0.8*mb {
		t.Errorf("depth-1 throughput %.2f MB/s outside calibration band", t1/mb)
	}
	if t4096 < 0.5*mb || t4096 > 1.2*mb {
		t.Errorf("depth-4096 throughput %.2f MB/s outside calibration band", t4096/mb)
	}
}

func TestStatsAccounting(t *testing.T) {
	d, clk := newDisk()
	clk.Enter()
	for i := 0; i < 10; i++ {
		d.Submit(&Request{Block: int64(i) * 100, Count: 2})
	}
	clk.Exit()
	s := d.Metrics().Snapshot()
	if s.Counter("requests") != 10 || s.Counter("blocks") != 20 || s.Counter("dispatches") != 10 {
		t.Fatalf("stats = %+v", s)
	}
	if q := s["queue_depth"]; q.Count != 10 || q.Sum <= 0 {
		t.Fatalf("queue_depth sampled %d dispatches, sum %d; want 10, > 0", q.Count, q.Sum)
	}
	if clk.Now() <= 0 {
		t.Fatal("no service time charged")
	}
}

func TestExtraServiceTimeCharged(t *testing.T) {
	d1, c1 := newDisk()
	var t1 vclock.Time
	d1.Submit(&Request{Block: 0, Count: 1, Done: func() { t1 = c1.Now() }})
	d2, c2 := newDisk()
	var t2 vclock.Time
	d2.Submit(&Request{Block: 0, Count: 1, Extra: time.Millisecond, Done: func() { t2 = c2.Now() }})
	if t2-t1 != vclock.Time(time.Millisecond) {
		t.Fatalf("Extra not charged: %v vs %v", t1, t2)
	}
}

func TestQueueDepthReporting(t *testing.T) {
	d, clk := newDisk()
	clk.Enter()
	for i := 0; i < 5; i++ {
		d.Submit(&Request{Block: int64(i * 1000), Count: 1})
	}
	if got := d.QueueDepth(); got != 5 {
		t.Fatalf("QueueDepth = %d, want 5", got)
	}
	clk.Exit()
	if got := d.QueueDepth(); got != 0 {
		t.Fatalf("QueueDepth after drain = %d", got)
	}
}

func TestFCFSIgnoresBlockOrder(t *testing.T) {
	clk := vclock.NewVirtual()
	d := NewWithScheduler(clk, DefaultGeometry(), FCFS)
	if d.sched != FCFS || d.sched.String() != "FCFS" {
		t.Fatal("scheduler wrong")
	}
	clk.Enter()
	var order []int64
	for _, b := range []int64{5000, 100, 9000, 4000} {
		b := b
		d.Submit(&Request{Block: b, Count: 1, Done: func() { order = append(order, b) }})
	}
	clk.Exit()
	want := []int64{5000, 100, 9000, 4000} // arrival order
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("FCFS order = %v, want arrival order %v", order, want)
		}
	}
}

// TestElevatorBeatsFCFS is the Figure 17 mechanism in isolation: at equal
// queue depth, C-LOOK spends less time seeking than FCFS.
func TestElevatorBeatsFCFS(t *testing.T) {
	run := func(s Scheduler) vclock.Time {
		clk := vclock.NewVirtual()
		d := NewWithScheduler(clk, DefaultGeometry(), s)
		rng := rand.New(rand.NewSource(3))
		clk.Enter()
		for i := 0; i < 500; i++ {
			d.Submit(&Request{Block: rng.Int63n(d.Geometry().Blocks), Count: 1})
		}
		clk.Exit()
		return clk.Now()
	}
	elevator := run(CLOOK)
	fcfs := run(FCFS)
	if !(elevator < fcfs) {
		t.Fatalf("elevator (%v) not faster than FCFS (%v)", elevator, fcfs)
	}
	if float64(fcfs)/float64(elevator) < 1.2 {
		t.Fatalf("elevator advantage implausibly small: %v vs %v", elevator, fcfs)
	}
}
