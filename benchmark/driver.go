package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// driver launches the child processes. Every segment is a fresh process
// — the driver re-executes itself — so segments share no heap, pool or
// scheduler state, and each pays (and reports) its own set-up.
type driver struct {
	self   string // this executable
	outDir string
	seed   uint64
	quick  bool
	launch int // children launched so far; numbers the segments
}

func newDriver(outDir string, seed uint64, quick bool) (*driver, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	return &driver{self: self, outDir: outDir, seed: seed, quick: quick}, nil
}

// childTimeout bounds one child; the slowest (web-disk's set-up plus a
// traced segment) takes well under a tenth of it.
const childTimeout = 150 * time.Second

// childProcs is every child's GOMAXPROCS: the worker and the collector.
const childProcs = 2

// child runs one segment of workload ("probes" runs the probe phase) in
// a fresh process with the run shape pinned: GOMAXPROCS=2 and the
// default GOGC, whatever the caller's environment says.
func (d *driver) child(workload string, traced bool) (*segment, error) {
	index := d.launch
	d.launch++
	args := []string{"-child", "-workload", workload, "-seed", strconv.FormatUint(d.seed, 10),
		"-segment", strconv.Itoa(index)}
	if d.quick {
		args = append(args, "-quick")
	}
	if traced {
		args = append(args, "-profile", filepath.Join(d.outDir, fmt.Sprintf("%s-seed%d-seg%d.pprof", workload, d.seed, index)))
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, d.self, append(args, "-origin", strconv.FormatInt(time.Now().UnixNano(), 10))...)
	for _, kv := range os.Environ() {
		switch name, _, _ := strings.Cut(kv, "="); name {
		case "GOMAXPROCS", "GOGC", "GOMEMLIMIT", "GODEBUG":
		default:
			cmd.Env = append(cmd.Env, kv)
		}
	}
	cmd.Env = append(cmd.Env, "GOMAXPROCS="+strconv.Itoa(childProcs))
	cmd.Stderr = os.Stderr
	// A killed driver must not leave a child behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s segment %d: %w", workload, index, err)
	}
	seg := &segment{}
	if err := json.Unmarshal(bytes.TrimSpace(out), seg); err != nil {
		return nil, fmt.Errorf("%s segment %d: bad report: %w", workload, index, err)
	}
	return seg, nil
}

// run is everything measured for one workload: its untraced segments,
// which alone feed the end-to-end metrics, and its traced ones.
type run struct {
	spec     spec
	plain    []*segment
	traced   []*segment
	problems []string
}

func (r *run) add(seg *segment) {
	if seg.Traced {
		r.traced = append(r.traced, seg)
	} else {
		r.plain = append(r.plain, seg)
	}
	for _, v := range seg.Violations {
		r.problems = append(r.problems, fmt.Sprintf("%s segment %d: %s", seg.Workload, seg.Index, v))
	}
}

func (r *run) all() []*segment { return append(append([]*segment{}, r.plain...), r.traced...) }

// checkExact fails the run unless every exact metric came out
// bit-identical in every segment, traced or not.
func (r *run) checkExact() {
	segs := r.all()
	for _, seg := range segs[1:] {
		for name, want := range segs[0].Exact {
			if got := seg.Exact[name]; got != want {
				r.problems = append(r.problems, fmt.Sprintf("%s: exact metric %s = %v in segment %d but %v in segment %d",
					r.spec.name, name, got, seg.Index, want, segs[0].Index))
			}
		}
	}
}

// stat is a metric over segments: the median with its quartiles.
type stat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// summarize computes the quartiles as Python's
// statistics.quantiles(values, n=4) does, so the numbers can be checked
// against the contract's own arithmetic.
func summarize(values []float64, unit string) stat {
	v := append([]float64{}, values...)
	sort.Float64s(v)
	n := len(v)
	if n == 0 {
		return stat{Unit: unit}
	}
	if n == 1 {
		return stat{Median: v[0], Q1: v[0], Q3: v[0], N: 1, Unit: unit}
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4 // after the clamp: the ends extrapolate
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	return stat{Median: q(2), Q1: q(1), Q3: q(3), N: n, Unit: unit}
}

// endToEndStats reduces the untraced segments to the end-to-end metrics.
func (r *run) endToEndStats() map[string]stat {
	out := map[string]stat{}
	for _, m := range endToEnd {
		var vals []float64
		for _, seg := range r.plain {
			if v, ok := seg.Exact[m.name]; ok {
				vals = append(vals, v)
			} else {
				vals = append(vals, seg.E2E[m.name])
			}
		}
		out[m.name] = summarize(vals, m.unit)
	}
	return out
}

// layerStats reduces all segments to the per-layer metrics: exact counts
// from any segment, host-dependent ones as medians, CPU shares from the
// pooled samples of the traced segments, and the tracing overhead.
func (r *run) layerStats(probeValues map[string]float64) (map[string]float64, error) {
	out := map[string]float64{}
	segs := r.all()
	for name, v := range segs[0].Exact {
		out[name] = v
	}
	for name := range segs[0].Layer {
		var vals []float64
		for _, seg := range segs {
			vals = append(vals, seg.Layer[name])
		}
		out[name] = summarize(vals, "").Median
	}
	samples := map[string]float64{}
	for _, seg := range r.traced {
		if err := attributeProfile(seg.Profile, samples); err != nil {
			return nil, err
		}
	}
	sh, err := shares(samples)
	if err != nil {
		return nil, err
	}
	for name, v := range sh {
		out[name] = v
	}
	rate := func(segs []*segment) float64 {
		var vals []float64
		for _, seg := range segs {
			vals = append(vals, seg.E2E["req_per_s"])
		}
		return summarize(vals, "").Median
	}
	out["trace.overhead_ratio"] = rate(r.traced) / rate(r.plain)
	for name, v := range probeValues {
		out[name] = v
	}
	return out, nil
}

// writeTrace appends every segment's spans and registry deltas to
// out/trace.jsonl, one JSON object per line.
func (d *driver) writeTrace(segs []*segment) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, seg := range segs {
		for _, sp := range seg.Spans {
			if err := enc.Encode(sp); err != nil {
				return err
			}
		}
		if len(seg.Deltas) > 0 {
			rec := struct {
				Workload string           `json:"workload"`
				Segment  int              `json:"segment"`
				Deltas   map[string]int64 `json:"registry_deltas"`
			}{seg.Workload, seg.Index, seg.Deltas}
			if err := enc.Encode(rec); err != nil {
				return err
			}
		}
	}
	return os.WriteFile(filepath.Join(d.outDir, "trace.jsonl"), buf.Bytes(), 0o644)
}
