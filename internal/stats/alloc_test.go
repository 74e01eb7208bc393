package stats

import "testing"

// The stats layer sits on every hot path (request accounting, latency
// observation), so its update operations must not allocate. These pins
// fail if a future change adds a per-update allocation.

func TestCounterUpdateAllocs(t *testing.T) {
	c := NewRegistry().Counter("reqs")
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(4096)
	}); n != 0 {
		t.Fatalf("counter update allocates %v per run, want 0", n)
	}
}

func TestGaugeUpdateAllocs(t *testing.T) {
	g := NewRegistry().Gauge("conns")
	if n := testing.AllocsPerRun(1000, func() {
		g.Add(1)
		g.Add(-1)
	}); n != 0 {
		t.Fatalf("gauge update allocates %v per run, want 0", n)
	}
}

func TestHistogramObserveAllocs(t *testing.T) {
	h := NewRegistry().Histogram("lat", PowersOfTwo(1<<20)...)
	v := int64(1)
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(v)
		v = (v * 5) % (1 << 21)
	}); n != 0 {
		t.Fatalf("histogram observe allocates %v per run, want 0", n)
	}
}
