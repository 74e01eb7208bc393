package stats

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("dispatches")
	c.Inc()
	if c.Inc() != 2 || c.Load() != 2 {
		t.Fatalf("counter = %d, want 2", c.Load())
	}
	c.Add(40)
	if c.Load() != 42 {
		t.Fatalf("counter = %d after Add(40), want 42", c.Load())
	}
	g := r.Gauge("depth")
	g.Add(3)
	g.Add(4)
	g.Add(-6)
	if g.Load() != 1 || g.Max() != 7 {
		t.Fatalf("gauge = %d max %d, want 1 max 7", g.Load(), g.Max())
	}
	// Same name returns the same instance.
	if r.Counter("dispatches") != c {
		t.Fatal("Counter not idempotent")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("depth", 1, 2, 4, 8)
	for _, v := range []int64{0, 1, 2, 3, 5, 9, 100} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	m := snap["depth"]
	if m.Kind != "histogram" || m.Count != 7 || m.Sum != 120 || m.Max != 100 {
		t.Fatalf("metric = %+v", m)
	}
	want := map[int64]uint64{1: 2, 2: 1, 4: 1, 8: 1, InfBucket: 2}
	for _, b := range m.Buckets {
		if want[b.Le] != b.Count {
			t.Fatalf("bucket le=%d count=%d, want %d", b.Le, b.Count, want[b.Le])
		}
		delete(want, b.Le)
	}
	if len(want) != 0 {
		t.Fatalf("buckets missing: %v (got %+v)", want, m.Buckets)
	}
}

func TestFuncMetrics(t *testing.T) {
	r := NewRegistry()
	var mu sync.Mutex // simulate a subsystem lock taken by the callback
	n := uint64(41)
	r.CounterFunc("reads", func() uint64 {
		mu.Lock()
		defer mu.Unlock()
		return n
	})
	r.GaugeFunc("open_fds", func() int64 { return 3 })
	n++
	snap := r.Snapshot()
	if snap.Counter("reads") != 42 || snap.Counter("open_fds") != 3 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestSnapshotMergeAndJSON(t *testing.T) {
	r1, r2 := NewRegistry(), NewRegistry()
	for i := 0; i < 10; i++ {
		r1.Counter("dispatches").Inc()
	}
	r2.Histogram("seek", 100, 1000).Observe(250)

	snap := Snapshot{}
	snap.Merge("sched", r1.Snapshot())
	snap.Merge("disk", r2.Snapshot())
	if snap.Counter("sched.dispatches") != 10 {
		t.Fatalf("merged snapshot = %+v", snap)
	}

	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back map[string]Metric
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if back["sched.dispatches"].Value != 10 || back["disk.seek"].Count != 1 {
		t.Fatalf("round trip = %+v", back)
	}
	// Deterministic output: two marshals are identical.
	var buf2 bytes.Buffer
	if err := snap.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("WriteJSON not deterministic")
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	h := r.Histogram("h", 4, 16, 64)
	g := r.Gauge("g")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 1000; i++ {
				c.Inc()
				h.Observe(i % 100)
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if c.Load() != 8000 || h.Count() != 8000 {
		t.Fatalf("counter %d histogram %d, want 8000", c.Load(), h.Count())
	}
	if g.Load() != 0 || g.Max() < 1 {
		t.Fatalf("gauge %d max %d", g.Load(), g.Max())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on kind mismatch")
		}
	}()
	r := NewRegistry()
	r.Counter("x")
	r.Gauge("x")
}
