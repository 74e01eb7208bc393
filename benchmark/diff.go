package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// verdict compares one end-to-end metric between an older and a newer
// result. A difference counts only if the medians differ by more than
// both the metric's bound and the older side's interquartile range;
// short of that, a spread wider than the bound on either side means the
// runs cannot tell, and the verdict is unresolved rather than unchanged.
func verdict(m metric, old, new stat) string {
	gain := new.Median - old.Median // positive is better
	if !m.higher {
		gain = -gain
	}
	limit := math.Max(m.bound*math.Abs(old.Median), old.Q3-old.Q1)
	switch {
	case gain > limit:
		return "improved"
	case -gain > limit:
		return "regressed"
	case spread(old) > m.bound || spread(new) > m.bound:
		return "unresolved"
	}
	return "unchanged"
}

// spread is the interquartile range as a share of the median.
func spread(s stat) float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := &result{}
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// runDiff prints one verdict per (workload, end-to-end metric).
func runDiff(w io.Writer, oldPath, newPath string) error {
	old, err := readResult(oldPath)
	if err != nil {
		return err
	}
	new, err := readResult(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "old: %s, seed %d\nnew: %s, seed %d\n", old.Host, old.Seed, new.Host, new.Seed)
	fmt.Fprintf(w, "%-13s %-16s %14s %14s %8s %7s %7s  %s\n",
		"workload", "metric", "old median", "new median", "change", "old iqr", "bound", "verdict")
	for _, sp := range workloads {
		o, n := old.EndToEnd[sp.name], new.EndToEnd[sp.name]
		if o == nil || n == nil {
			continue
		}
		for _, m := range endToEnd {
			change := 0.0
			if o[m.name].Median != 0 {
				change = (n[m.name].Median - o[m.name].Median) / o[m.name].Median
			}
			fmt.Fprintf(w, "%-13s %-16s %14.6g %14.6g %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				sp.name, m.name, o[m.name].Median, n[m.name].Median, 100*change,
				100*spread(o[m.name]), 100*m.bound, verdict(m, o[m.name], n[m.name]))
		}
		if o, n := old.FailRatio[sp.name], new.FailRatio[sp.name]; o != 0 || n != 0 {
			fmt.Fprintf(w, "%-13s %-16s %14.6g %14.6g  (any failed request is a regression)\n", sp.name, "fail_ratio", o, n)
		}
	}
	return nil
}
