// Package stats is the runtime's observability layer: cheap,
// allocation-free metric primitives (atomic counters, gauges, and
// fixed-bucket histograms) gathered into named registries with a
// Snapshot/WriteJSON API.
//
// The paper's central claim is that an application-level runtime makes
// scheduler behaviour programmable *and inspectable* — the event loops of
// Figure 14 are ordinary code, so every queue, wait, and dispatch can be
// measured without kernel tooling. This package is that inspection
// surface: internal/core, internal/kernel, internal/disk, internal/tcp,
// and internal/httpd each own a Registry, the bench harnesses merge the
// snapshots into one JSON block per run, and cmd binaries dump them with
// -stats.
//
// Hot-path discipline: updating a Counter, Gauge, or Histogram is one or
// two atomic operations and never allocates; registration and Snapshot
// allocate and take locks, so they belong at setup and reporting time.
package stats

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count.
type Counter struct{ n atomic.Uint64 }

// Inc adds one and returns the new value.
func (c *Counter) Inc() uint64 { return c.n.Add(1) }

// Add increases the counter by d.
func (c *Counter) Add(d uint64) { c.n.Add(d) }

// Load reports the current value.
func (c *Counter) Load() uint64 { return c.n.Load() }

// Gauge is an instantaneous level with a high-water mark.
type Gauge struct {
	v  atomic.Int64
	hi atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	g.v.Store(v)
	g.raiseMax(v)
}

// Add moves the gauge by d and returns the new value.
func (g *Gauge) Add(d int64) int64 {
	v := g.v.Add(d)
	g.raiseMax(v)
	return v
}

// Load reports the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Max reports the high-water mark.
func (g *Gauge) Max() int64 { return g.hi.Load() }

func (g *Gauge) raiseMax(v int64) {
	for {
		old := g.hi.Load()
		if v <= old || g.hi.CompareAndSwap(old, v) {
			return
		}
	}
}

// Histogram is a fixed-bucket distribution of int64 observations. Bounds
// are inclusive upper edges in ascending order; one implicit overflow
// bucket catches everything above the last bound. Observe is a linear
// scan over a small bounds slice plus three atomic adds — no allocation,
// no lock.
type Histogram struct {
	bounds []int64
	counts []atomic.Uint64 // len(bounds)+1; last is overflow
	count  atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("stats: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum reports the total of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max reports the largest observation.
func (h *Histogram) Max() int64 { return h.max.Load() }

// Quantile estimates the q-quantile (0 < q <= 1) from the bucket counts:
// it returns the upper bound of the bucket where the cumulative count
// crosses q·Count, so the estimate errs toward the pessimistic side —
// the right bias for latency SLO reporting. Observations in the overflow
// bucket report the observed maximum. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.max.Load()
		}
	}
	return h.max.Load()
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

// PowersOfTwo builds histogram bounds {1, 2, 4, …} up to and including
// the first power of two >= max — the usual shape for queue depths and
// batch sizes.
func PowersOfTwo(max int64) []int64 {
	var out []int64
	for b := int64(1); ; b *= 2 {
		out = append(out, b)
		if b >= max {
			return out
		}
	}
}

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

type metric struct {
	kind      metricKind
	counter   *Counter
	gauge     *Gauge
	hist      *Histogram
	counterFn func() uint64
	gaugeFn   func() int64
}

// Registry is a named collection of metrics belonging to one subsystem.
// Metric names are local to the registry (no package prefix); callers
// that merge several registries add prefixes at snapshot time.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{metrics: make(map[string]*metric)} }

func (r *Registry) get(name string, kind metricKind) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("stats: metric %q re-registered with a different kind", name))
		}
		return m
	}
	m := &metric{kind: kind}
	r.metrics[name] = m
	return m
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	m := r.get(name, kindCounter)
	if m.counter == nil {
		m.counter = &Counter{}
	}
	return m.counter
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	m := r.get(name, kindGauge)
	if m.gauge == nil {
		m.gauge = &Gauge{}
	}
	return m.gauge
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds ...int64) *Histogram {
	m := r.get(name, kindHistogram)
	if m.hist == nil {
		m.hist = newHistogram(bounds)
	}
	return m.hist
}

// CounterFunc registers a counter whose value is read from fn at
// snapshot time — the bridge for subsystems that already keep their own
// counters under a lock. fn must be safe to call from any goroutine.
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	r.get(name, kindCounterFunc).counterFn = fn
}

// GaugeFunc registers a gauge read from fn at snapshot time.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	r.get(name, kindGaugeFunc).gaugeFn = fn
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

// InfBucket marks the overflow bucket's upper bound in snapshots.
const InfBucket = int64(math.MaxInt64)

// Bucket is one histogram bucket: observations <= Le (and greater than
// the previous bucket's Le).
type Bucket struct {
	Le    int64  `json:"le"`
	Count uint64 `json:"count"`
}

// Metric is the frozen value of one metric.
type Metric struct {
	Kind    string   `json:"kind"` // "counter" | "gauge" | "histogram"
	Value   int64    `json:"value"`
	Max     int64    `json:"max,omitempty"`
	Count   uint64   `json:"count,omitempty"`
	Sum     int64    `json:"sum,omitempty"`
	Mean    float64  `json:"mean,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of a registry (or several merged
// registries), keyed by metric name. It marshals to deterministic JSON
// (encoding/json sorts map keys).
type Snapshot map[string]Metric

// Snapshot freezes the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	metrics := make([]*metric, 0, len(r.metrics))
	for name, m := range r.metrics {
		names = append(names, name)
		metrics = append(metrics, m)
	}
	r.mu.Unlock()

	// Func metrics run outside r.mu: their callbacks may take subsystem
	// locks that must never nest inside the registry's.
	out := make(Snapshot, len(names))
	for i, m := range metrics {
		out[names[i]] = m.freeze()
	}
	return out
}

func (m *metric) freeze() Metric {
	switch m.kind {
	case kindCounter:
		return Metric{Kind: "counter", Value: int64(m.counter.Load())}
	case kindCounterFunc:
		return Metric{Kind: "counter", Value: int64(m.counterFn())}
	case kindGauge:
		return Metric{Kind: "gauge", Value: m.gauge.Load(), Max: m.gauge.Max()}
	case kindGaugeFunc:
		return Metric{Kind: "gauge", Value: m.gaugeFn()}
	case kindHistogram:
		h := m.hist
		out := Metric{Kind: "histogram", Count: h.count.Load(), Sum: h.sum.Load(), Max: h.max.Load()}
		if out.Count > 0 {
			out.Mean = float64(out.Sum) / float64(out.Count)
		}
		out.Buckets = make([]Bucket, 0, len(h.counts))
		for i := range h.counts {
			n := h.counts[i].Load()
			if n == 0 {
				continue // keep snapshots compact; absent buckets are zero
			}
			le := InfBucket
			if i < len(h.bounds) {
				le = h.bounds[i]
			}
			out.Buckets = append(out.Buckets, Bucket{Le: le, Count: n})
		}
		return out
	}
	panic("stats: unknown metric kind")
}

// Merge copies other into s with every key prefixed by "prefix.".
// An empty prefix copies keys unchanged.
func (s Snapshot) Merge(prefix string, other Snapshot) {
	for name, m := range other {
		if prefix != "" {
			name = prefix + "." + name
		}
		s[name] = m
	}
}

// Counter reads a counter or gauge value by name (0 if absent) —
// convenience for tests and report code.
func (s Snapshot) Counter(name string) int64 { return s[name].Value }

// WriteJSON writes the snapshot as indented JSON with sorted keys.
func (s Snapshot) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
