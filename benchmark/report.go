package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// result is what a suite run leaves in out/result.json for -diff.
type result struct {
	Host      hostInfo                      `json:"host"`
	Seed      uint64                        `json:"seed"`
	Quick     bool                          `json:"quick,omitempty"`
	EndToEnd  map[string]map[string]stat    `json:"end_to_end"` // workload → metric
	FailRatio map[string]float64            `json:"fail_ratio"`
	PerLayer  map[string]map[string]float64 `json:"per_layer"` // workload → metric
}

// selected resolves -workload.
func selected(name string) ([]spec, error) {
	if name == "" {
		return workloads, nil
	}
	w, ok := findWorkload(name)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	return []spec{w}, nil
}

// runSuite is `go run ./benchmark`: rounds untraced segments of every
// workload, the order rotated every round so each workload's segments
// are spread over the whole run (wall time on a shared host drifts over
// tens of seconds), then one traced pass — the probes, and one profiled
// segment per workload.
func runSuite(w io.Writer, outDir, only string, seed uint64, rounds int, quick bool) error {
	specs, err := selected(only)
	if err != nil {
		return err
	}
	if quick {
		rounds = 2
	}
	if rounds < 2 {
		return fmt.Errorf("-rounds %d: quartiles need at least 2 segments", rounds)
	}
	d, err := newDriver(outDir, seed, quick)
	if err != nil {
		return err
	}
	host := readHost()
	fmt.Fprintf(w, "# %s\n# seed %d, %d untraced rounds + 1 traced pass, Workers 1, virtual clock, closed loop\n", host, seed, rounds)

	runs := make([]*run, len(specs))
	for i, sp := range specs {
		runs[i] = &run{spec: sp}
	}
	for round := 0; round < rounds+1; round++ {
		traced := round == rounds
		for i := range runs {
			r := runs[(i+round)%len(runs)]
			seg, err := d.child(r.spec.name, traced)
			if err != nil {
				return err
			}
			r.add(seg)
			fmt.Fprintf(os.Stderr, "round %d %-13s %6.2fs set-up %6.2fs measured %9.0f req/s\n",
				round, r.spec.name, seg.E2E["setup_s"], seg.MeasureS, seg.E2E["req_per_s"])
		}
	}
	probeSeg, err := d.child("probes", false)
	if err != nil {
		return err
	}

	res := result{Host: host, Seed: seed, Quick: quick,
		EndToEnd: map[string]map[string]stat{}, FailRatio: map[string]float64{}, PerLayer: map[string]map[string]float64{}}
	var problems []string
	segs := []*segment{probeSeg}
	for _, r := range runs {
		r.checkExact()
		problems = append(problems, r.problems...)
		segs = append(segs, r.all()...)
		layers, err := r.layerStats(probeSeg.Layer)
		if err != nil {
			return err
		}
		res.EndToEnd[r.spec.name] = r.endToEndStats()
		res.FailRatio[r.spec.name] = r.failRatio()
		res.PerLayer[r.spec.name] = layers
		printRun(w, r, res.EndToEnd[r.spec.name], res.FailRatio[r.spec.name], layers)
	}
	if err := d.writeOut(segs); err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "result.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nresult written to %s (compare two with -diff OLD.json NEW.json)\n", path)
	return failOn(problems)
}

func failOn(problems []string) error {
	if len(problems) == 0 {
		return nil
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "VIOLATION:", p)
	}
	return fmt.Errorf("%d correctness violation(s)", len(problems))
}

func (r *run) failRatio() float64 {
	var attempted, failed uint64
	for _, seg := range r.all() {
		attempted += seg.Attempted
		failed += seg.Failed
	}
	return float64(failed) / float64(attempted)
}

// printRun prints every metric of one workload by name, with its unit.
func printRun(w io.Writer, r *run, e2e map[string]stat, failRatio float64, layers map[string]float64) {
	fmt.Fprintf(w, "\n== %s ==\n%s\n", r.spec.name, r.spec.why)
	fmt.Fprintf(w, "%-32s %14s %14s %14s %4s  %s\n", "end-to-end", "median", "q1", "q3", "n", "unit")
	for _, m := range endToEnd {
		s := e2e[m.name]
		fmt.Fprintf(w, "%-32s %14.6g %14.6g %14.6g %4d  %s\n", m.name, s.Median, s.Q1, s.Q3, s.N, s.Unit)
	}
	fmt.Fprintf(w, "%-32s %14.6g %14s %14s %4s  %s\n", "fail_ratio", failRatio, "", "", "", "ratio")
	if layers == nil {
		return
	}
	fmt.Fprintf(w, "%-32s %14s  %s\n", "per-layer", "value", "unit")
	for _, m := range perLayer() {
		fmt.Fprintf(w, "%-32s %14.6g  %s\n", m.name, layers[m.name], m.unit)
	}
}

// runContract is BENCHMARK.json's command: one workload, measured for
// about `seconds` in fixed-size segments (so at least that long, rounded
// up to a whole segment), each a fresh child with its own set-up. The
// last line of standard output is the result object.
func runContract(w io.Writer, outDir, name string, seed uint64, seconds float64, trace, quick bool) error {
	sp, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	d, err := newDriver(outDir, seed, quick)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# %s\n# %s seed %d, %gs, trace %v\n", readHost(), name, seed, seconds, trace)
	r := &run{spec: sp}
	segs := []*segment{}
	measured := 0.0
	var probeValues map[string]float64
	if trace {
		// The probes are part of the traced measurement and of its time.
		probeSeg, err := d.child("probes", false)
		if err != nil {
			return err
		}
		probeValues = probeSeg.Layer
		measured += probeSeg.MeasureS
		segs = append(segs, probeSeg)
	}
	// Quartiles need two segments; the tracing overhead needs a pair.
	for n := 0; n < 2 || measured < seconds; n++ {
		seg, err := d.child(name, trace && n%2 == 1)
		if err != nil {
			return err
		}
		r.add(seg)
		measured += seg.MeasureS
	}
	r.checkExact()
	segs = append(segs, r.all()...)
	if err := d.writeOut(segs); err != nil {
		return err
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(r.problems) == 0, Metrics: map[string]value{}}
	for _, seg := range r.all() {
		out.Attempted += seg.Attempted
		out.Failed += seg.Failed
	}
	e2e := r.endToEndStats()
	if trace {
		layers, err := r.layerStats(probeValues)
		if err != nil {
			return err
		}
		printRun(w, r, e2e, r.failRatio(), layers)
		for _, m := range perLayer() {
			out.Metrics[m.name] = value{layers[m.name], m.unit}
		}
	} else {
		printRun(w, r, e2e, r.failRatio(), nil)
		for _, m := range endToEnd {
			out.Metrics[m.name] = value{e2e[m.name].Median, m.unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return failOn(r.problems)
}

// writeOut leaves the per-segment reports and the trace in the out
// directory.
func (d *driver) writeOut(segs []*segment) error {
	sort.SliceStable(segs, func(i, j int) bool { return segs[i].Index < segs[j].Index })
	f, err := os.Create(filepath.Join(d.outDir, "segments.jsonl"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, seg := range segs {
		if err := enc.Encode(seg); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	return d.writeTrace(segs)
}
