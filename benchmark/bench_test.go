package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The driver re-executes its own binary for every segment. Under `go
// test` that binary is the test binary, so a child is recognised by the
// environment and handed to main before the test flags are parsed.
const childEnv = "BENCHMARK_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

func readSegments(t *testing.T, dir string) []*segment {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, "segments.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var segs []*segment
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		seg := &segment{}
		if err := json.Unmarshal(sc.Bytes(), seg); err != nil {
			t.Fatal(err)
		}
		segs = append(segs, seg)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return segs
}

// TestQuickSuite runs the whole suite at 1/100 of its request counts:
// all four workloads, two untraced segments and one traced each, every
// one a fresh process. It passes only if every pre-flight comparison and
// post-segment invariant held and every exact metric is bit-identical
// across a workload's segments.
func TestQuickSuite(t *testing.T) {
	t.Setenv(childEnv, "1")
	dir := t.TempDir()
	var out bytes.Buffer
	if err := runSuite(&out, dir, "", 7, 2, true); err != nil {
		t.Fatalf("quick suite: %v\n%s", err, out.String())
	}
	byWorkload := map[string][]*segment{}
	for _, seg := range readSegments(t, dir) {
		if seg.Workload != "probes" {
			byWorkload[seg.Workload] = append(byWorkload[seg.Workload], seg)
		}
	}
	for _, sp := range workloads {
		segs := byWorkload[sp.name]
		if len(segs) != 3 {
			t.Fatalf("%s: %d segments, want 3", sp.name, len(segs))
		}
		for _, seg := range segs {
			if len(seg.Violations) > 0 || seg.Failed != 0 || seg.Attempted == 0 {
				t.Errorf("%s segment %d: attempted %d, failed %d, violations %v", sp.name, seg.Index, seg.Attempted, seg.Failed, seg.Violations)
			}
			if !reflect.DeepEqual(seg.Exact, segs[0].Exact) {
				t.Errorf("%s: exact metrics differ between segments %d and %d:\n%v\n%v", sp.name, segs[0].Index, seg.Index, segs[0].Exact, seg.Exact)
			}
		}
		if len(segs[0].Exact) < 20 {
			t.Errorf("%s: only %d exact metrics", sp.name, len(segs[0].Exact))
		}
		// Every metric is printed by name.
		for _, m := range append(append([]metric{}, endToEnd...), perLayer()...) {
			if !strings.Contains(out.String(), "\n"+m.name+" ") {
				t.Errorf("suite output lacks metric %s", m.name)
			}
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "trace.jsonl")); err != nil {
		t.Error(err)
	}
}

// benchmarkJSON mirrors the contract's file.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

func better(m metric) string {
	if m.higher {
		return "higher"
	}
	return "lower"
}

// TestBenchmarkJSON holds BENCHMARK.json and the program to the same
// workloads and metrics: names, units, directions, bounds and the "why".
func TestBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}

	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range b.EndToEnd {
		name(m.Name)
		want := endToEnd[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != better(want) || m.Bound != want.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, m, want)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: unit %q, bound %v", m.Name, m.Unit, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	if i := len(b.EndToEnd) - 1; b.EndToEnd[i].Name != "setup_s" || b.EndToEnd[i].Unit != "s" || b.EndToEnd[i].Better != "lower" || b.EndToEnd[i].Bound != maxBound {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better, with the largest bound; have %+v", b.EndToEnd[i])
	}

	layers := perLayer()
	if len(b.PerLayer) != len(layers) || len(layers) > 128 {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d (at most 128)", len(b.PerLayer), len(layers))
	}
	for i, m := range b.PerLayer {
		name(m.Name)
		want := layers[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != better(want) || !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, m, want)
		}
	}

	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
}

// TestContractOutput runs BENCHMARK.json's two modes at quick size and
// checks that the last line carries exactly the declared metric names.
func TestContractOutput(t *testing.T) {
	t.Setenv(childEnv, "1")
	b := readBenchmarkJSON(t)
	for _, trace := range []bool{false, true} {
		var out bytes.Buffer
		if err := runContract(&out, t.TempDir(), "churn-c10k", 11, 0.05, trace, true); err != nil {
			t.Fatalf("trace %v: %v\n%s", trace, err, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct   *bool  `json:"correct"`
			Attempted uint64 `json:"attempted"`
			Failed    uint64 `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("trace %v: last line is not the result object: %v\n%s", trace, err, lines[len(lines)-1])
		}
		if res.Correct == nil || !*res.Correct || res.Attempted == 0 || res.Failed != 0 {
			t.Errorf("trace %v: correct %v, attempted %d, failed %d", trace, res.Correct, res.Attempted, res.Failed)
		}
		want := map[string]string{}
		if trace {
			for _, m := range b.PerLayer {
				want[m.Name] = m.Unit
			}
		} else {
			for _, m := range b.EndToEnd {
				want[m.Name] = m.Unit
			}
		}
		var got []string
		for name, v := range res.Metrics {
			got = append(got, name)
			if unit, ok := want[name]; !ok || unit != v.Unit || v.Value == nil {
				t.Errorf("trace %v: metric %s (unit %q) is not declared so in BENCHMARK.json", trace, name, v.Unit)
			}
		}
		if len(got) != len(want) {
			sort.Strings(got)
			t.Errorf("trace %v: %d metrics printed, %d declared: %v", trace, len(got), len(want), got)
		}
	}
}

// A canned `go tool pprof -sample_index=samples -traces` output: one
// sample per attribution case.
const cannedTraces = `File: benchmark
Type: samples
Time: 2026-09-26 20:17:21 UTC
Duration: 3.01s, Total samples = 296
-----------+-------------------------------------------------------
        37   runtime.memmove
             hybrid/internal/kernel.(*pipe).writeData
             hybrid/internal/kernel.(*Kernel).Write
             hybrid/internal/hio.(*sendCellState).try
             hybrid/internal/core.(*Runtime).runEffect
             hybrid/internal/core.(*Runtime).workerMain
-----------+-------------------------------------------------------
         2   runtime.memclrNoHeapPointers
             runtime.mallocgc
             strings.genSplit
             strings.Split (inline)
             hybrid/internal/httpd.ParseResponseHead
             hybrid/internal/loadgen.(*requestPump).parseEffect
             hybrid/internal/core.(*Runtime).runEffect
-----------+-------------------------------------------------------
         5   hybrid/internal/httpd.(*HeadBuffer).Feed (inline)
             hybrid/internal/loadgen.(*requestPump).feedEffect
             hybrid/internal/core.(*Runtime).step
-----------+-------------------------------------------------------
         3   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker.func2
             runtime.systemstack
-----------+-------------------------------------------------------
         4   hybrid/internal/tcp/tracecheck.Run
             main.probeTCPBulk.func1
-----------+-------------------------------------------------------
         7   bytes.Equal
             main.(*fetcher).body.func1
             hybrid/internal/core.Bind[...].func1.1
             hybrid/internal/core.(*Runtime).interpret
-----------+-------------------------------------------------------
         1   runtime.futex
             runtime.notesleep
             runtime.stopm
             runtime.findRunnable
             runtime.schedule
-----------+-------------------------------------------------------
         6   hybrid/internal/faults.(*Injector).Latency
             hybrid/internal/kernel.(*watch).fire
             hybrid/internal/kernel.fireAll
`

func TestAttribute(t *testing.T) {
	samples := map[string]float64{}
	if err := attribute(strings.NewReader(cannedTraces), samples); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"kernel":     37 + 6, // memmove, and a package with no row, land on the layer that called them
		"httpd":      2 + 5,
		"runtime_bg": 3 + 1,
		"tcp":        4, // a sub-package counts for its parent
		"client":     7, // the benchmark's own package
	}
	if !reflect.DeepEqual(samples, want) {
		t.Fatalf("attribution = %v, want %v", samples, want)
	}
	sh, err := shares(samples)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range sh {
		sum += v
	}
	if len(sh) != len(profLayers) || sum < 0.999999 || sum > 1.000001 {
		t.Errorf("%d shares summing to %v, want %d summing to 1", len(sh), sum, len(profLayers))
	}
}

// TestSummarize pins the quartiles to Python's
// statistics.quantiles(values, n=4), which the contract computes with.
func TestSummarize(t *testing.T) {
	for _, c := range []struct {
		values     []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 4, 8, 16, 32, 64, 128}, 2.5, 12, 56},
	} {
		s := summarize(c.values, "x")
		if s.Q1 != c.q1 || s.Median != c.q2 || s.Q3 != c.q3 || s.N != len(c.values) {
			t.Errorf("summarize(%v) = %+v, want quartiles %v %v %v", c.values, s, c.q1, c.q2, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	rate := metric{name: "req_per_s", higher: true, bound: 0.10}
	cost := metric{name: "cpu_us_per_req", bound: 0.10}
	st := func(q1, med, q3 float64) stat { return stat{Median: med, Q1: q1, Q3: q3, N: 8} }
	for _, c := range []struct {
		m        metric
		old, new stat
		want     string
	}{
		{rate, st(98, 100, 102), st(118, 120, 122), "improved"},
		{rate, st(98, 100, 102), st(83, 85, 87), "regressed"},
		{cost, st(98, 100, 102), st(83, 85, 87), "improved"},
		{cost, st(98, 100, 102), st(118, 120, 122), "regressed"},
		{rate, st(98, 100, 102), st(103, 105, 107), "unchanged"},  // within the bound
		{rate, st(90, 100, 110), st(110, 115, 120), "unresolved"}, // within the old IQR, and that is wider than the bound
		{rate, st(98, 100, 102), st(90, 105, 120), "unresolved"},  // the new side's spread hides it
		{rate, st(85, 100, 115), st(135, 140, 145), "improved"},   // clear of both the bound and a wide IQR
	} {
		if got := verdict(c.m, c.old, c.new); got != c.want {
			t.Errorf("verdict(%s, %+v -> %+v) = %s, want %s", c.m.name, c.old, c.new, got, c.want)
		}
	}
}
