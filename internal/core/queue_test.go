package core

import (
	"sync"
	"sync/atomic"
	"testing"
)

func mkTCBs(n int) []*TCB {
	out := make([]*TCB, n)
	for i := range out {
		out[i] = &TCB{id: uint64(i + 1)}
	}
	return out
}

func TestSharedQueueFIFO(t *testing.T) {
	q := newSharedQueue()
	tcbs := mkTCBs(5)
	for _, tcb := range tcbs {
		q.push(tcb)
	}
	for i := 0; i < 5; i++ {
		got, ok := q.pop()
		if !ok || got.id != uint64(i+1) {
			t.Fatalf("pop %d = %v, %v", i, got, ok)
		}
	}
	if q.size() != 0 {
		t.Fatalf("size = %d", q.size())
	}
}

func TestSharedQueueGrowsAcrossWrap(t *testing.T) {
	// Fill past the initial ring capacity with the head displaced, so
	// growth must relocate a wrapped ring correctly.
	q := newSharedQueue()
	tcbs := mkTCBs(200)
	for i := 0; i < 40; i++ {
		q.push(tcbs[i])
	}
	for i := 0; i < 30; i++ {
		got, _ := q.pop()
		if got.id != uint64(i+1) {
			t.Fatalf("warmup pop got %d", got.id)
		}
	}
	for i := 40; i < 200; i++ {
		q.push(tcbs[i])
	}
	for i := 30; i < 200; i++ {
		got, ok := q.pop()
		if !ok || got.id != uint64(i+1) {
			t.Fatalf("pop %d = id %d, ok %v", i, got.id, ok)
		}
	}
}

func TestSharedQueueCloseReleasesPoppers(t *testing.T) {
	q := newSharedQueue()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, ok := q.pop(); ok {
				t.Error("pop returned ok after close with empty queue")
			}
		}()
	}
	q.close()
	wg.Wait()
	// A closed queue rejects, so the caller can account for the thread.
	if q.push(&TCB{id: 1}) {
		t.Fatal("push accepted after close")
	}
	if q.size() != 0 {
		t.Fatal("push after close retained a thread")
	}
}

// close hands back the threads still queued, oldest first, so Shutdown
// can discard each with full accounting.
func TestSharedQueueCloseReturnsStragglers(t *testing.T) {
	q := newSharedQueue()
	for _, tcb := range mkTCBs(5) {
		q.push(tcb)
	}
	if got, ok := q.pop(); !ok || got.id != 1 {
		t.Fatalf("pop = %v, %v", got, ok)
	}
	drained := q.close()
	if len(drained) != 4 {
		t.Fatalf("close returned %d threads, want 4", len(drained))
	}
	for i, tcb := range drained {
		if tcb.id != uint64(i+2) {
			t.Fatalf("straggler %d has id %d, want %d", i, tcb.id, i+2)
		}
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop returned ok after close drained the queue")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Workers != 1 || o.BatchSteps != 128 || o.BlioWorkers != 2 || o.Clock == nil {
		t.Fatalf("defaults = %+v", o)
	}
	o2 := Options{BlioWorkers: -1}.withDefaults()
	if o2.BlioWorkers != 0 {
		t.Fatalf("negative BlioWorkers should disable the pool, got %d", o2.BlioWorkers)
	}
}

func TestQueueDepthVisible(t *testing.T) {
	rt := NewRuntime(Options{Workers: 1, BatchSteps: 1})
	defer rt.Shutdown()
	gate := NewMVar[Unit]()
	// One thread holds the single worker hostage; others pile up.
	rt.Spawn(Bind(gate.Take(), func(Unit) M[Unit] { return Skip }))
	waitFor(t, func() bool { return rt.Live() == 1 })
	for i := 0; i < 5; i++ {
		rt.Spawn(Bind(gate.Take(), func(Unit) M[Unit] { return Skip }))
	}
	waitFor(t, func() bool { return rt.QueueDepth() == 0 }) // all parked
	for i := 0; i < 6; i++ {
		rt.Spawn(gate.Put(Unit{}))
	}
	rt.WaitIdle()
}

// ---------------------------------------------------------------------------
// Parallel stress (run with -race; `make stress` picks these up by name)
// ---------------------------------------------------------------------------

// Eight workers pop while four producers push from outside, and a third
// of the threads go around once more (the batch-exhausted hand-back). The
// invariant is conservation: every produced thread is delivered exactly
// once per push, none lost and none duplicated.
func TestSharedQueueParallelStress(t *testing.T) {
	const (
		workers     = 8
		producers   = 4
		perProducer = 800
	)
	total := producers * perProducer
	q := newSharedQueue()

	deliveries := make([]atomic.Int32, total+1)
	var consumed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				tcb, ok := q.pop()
				if !ok {
					return
				}
				if deliveries[tcb.id].Add(1) == 1 && tcb.id%3 == 0 && q.push(tcb) {
					continue
				}
				consumed.Add(1)
			}
		}()
	}

	var prod sync.WaitGroup
	for p := 0; p < producers; p++ {
		p := p
		prod.Add(1)
		go func() {
			defer prod.Done()
			for i := 0; i < perProducer; i++ {
				if !q.push(&TCB{id: uint64(p*perProducer + i + 1)}) {
					t.Error("push rejected while open")
					return
				}
			}
		}()
	}
	prod.Wait()
	waitFor(t, func() bool { return consumed.Load() == int64(total) })
	q.close()
	wg.Wait()
	if got := consumed.Load(); got != int64(total) {
		t.Fatalf("consumed %d threads, want %d", got, total)
	}
	for id := 1; id <= total; id++ {
		want := int32(1)
		if id%3 == 0 {
			want = 2
		}
		if got := deliveries[id].Load(); got != want {
			t.Fatalf("thread %d delivered %d times, want %d", id, got, want)
		}
	}
}
