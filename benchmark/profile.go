package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// Attribution rule. Each sample of `go tool pprof -traces` is a stack,
// innermost frame first. The sample is charged to the innermost frame
// that lies in a reported layer: hybrid/internal/<layer> for the layers
// in profLayers (sub-packages count for their parent), or the
// benchmark's own package main, which is the "client" layer.
// runtime.memmove and runtime.mallocgc therefore land on the layer that
// called them, and so do the packages without a row of their own
// (faults' nil-injector checks, overload's limiter). A stack with no
// such frame — GC workers, the Go scheduler, the profiler — is charged
// to runtime_bg. Every sample is charged exactly once, so the shares sum
// to 1.

const internalPrefix = "hybrid/internal/"

// frameLayer names the reported layer a function belongs to, or "".
func frameLayer(fn string) string {
	if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 && slices.Contains(profLayers, rest[:i]) {
			return rest[:i]
		}
		return ""
	}
	if strings.HasPrefix(fn, "main.") {
		return "client"
	}
	return ""
}

// attribute reads `pprof -sample_index=samples -traces` text and adds
// each sample's count to its layer.
func attribute(r io.Reader, samples map[string]float64) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var (
		inSample bool
		count    float64
		layer    string
	)
	flush := func() {
		if inSample {
			if layer == "" {
				layer = "runtime_bg"
			}
			samples[layer] += count
		}
		inSample, count, layer = false, 0, ""
	}
	seenRule := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			seenRule = true
			continue
		}
		if !seenRule {
			continue // the header: File, Type, Time, Duration
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		fn := fields[len(fields)-1]
		if !inSample {
			// A sample's first line is "<count> <innermost frame>"; label
			// lines ("key: value") may come before it.
			n, err := strconv.ParseFloat(fields[0], 64)
			if err != nil || len(fields) < 2 {
				continue
			}
			inSample, count = true, n
			fn = strings.Join(fields[1:], " ")
		} else {
			fn = strings.Join(fields, " ")
		}
		if layer == "" {
			layer = frameLayer(fn)
		}
	}
	flush()
	return sc.Err()
}

// attributeProfile runs the toolchain's pprof over one CPU profile.
func attributeProfile(path string, samples map[string]float64) error {
	out, err := exec.Command("go", "tool", "pprof", "-sample_index=samples", "-traces", path).Output()
	if err != nil {
		return fmt.Errorf("go tool pprof -traces %s: %w", path, err)
	}
	return attribute(bytes.NewReader(out), samples)
}

// shares turns per-layer sample counts into prof.<layer>_share metrics.
func shares(samples map[string]float64) (map[string]float64, error) {
	total := 0.0
	for _, n := range samples {
		total += n
	}
	if total == 0 {
		return nil, fmt.Errorf("CPU profile holds no samples")
	}
	out := map[string]float64{}
	for _, l := range profLayers {
		out["prof."+l+"_share"] = samples[l] / total
	}
	return out, nil
}
