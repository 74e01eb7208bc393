// Command benchmark is the repository's benchmark: four fixed, seeded,
// closed-loop web workloads driven through the whole stack (loadgen →
// kernel or tcp+netsim → hio → core → httpd → disk/vclock), six
// end-to-end metrics per workload, and a per-layer cost map taken from
// outside the layers. See README.md beside this file.
//
//	go run ./benchmark                       the whole suite, default seed
//	go run ./benchmark -workload web-disk    one workload
//	go run ./benchmark -diff OLD.json NEW.json
//
// BENCHMARK.json's command runs it as
// `--workload W --seed N --seconds S --trace 0|1` and reads the last line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload (default: all four)")
		seed     = flag.Uint64("seed", 7, "workload seed: feeds the request streams, the netsim RNG and the loss draw")
		rounds   = flag.Int("rounds", 8, "untraced segments per workload in a suite run")
		quick    = flag.Bool("quick", false, "request counts / 100 and two rounds (for tests)")
		diff     = flag.Bool("diff", false, "compare two result files: -diff OLD.json NEW.json")
		outDir   = flag.String("out", "benchmark/out", "directory for spans, profiles and per-segment JSON")
		seconds  = flag.Float64("seconds", 0, "contract mode: measure one workload for this long and print one JSON line last")
		trace    = flag.Int("trace", 0, "contract mode: 0 reports the end-to-end metrics, 1 the per-layer metrics")

		child   = flag.Bool("child", false, "internal: run one segment and report it as JSON")
		index   = flag.Int("segment", 0, "internal: segment number")
		profile = flag.String("profile", "", "internal: write a CPU profile of the measured phase here")
		origin  = flag.Int64("origin", 0, "internal: when the driver launched this child, Unix ns")
	)
	flag.Parse()

	var err error
	switch {
	case *child:
		o := childOpts{workload: *workload, seed: *seed, index: *index, quick: *quick, profile: *profile, origin: procStart}
		if *origin > 0 {
			o.origin = time.Unix(0, *origin)
		}
		err = runChild(o)
	case *diff:
		if flag.NArg() != 2 {
			err = fmt.Errorf("usage: -diff OLD.json NEW.json")
		} else {
			err = runDiff(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	case *seconds > 0:
		err = runContract(os.Stdout, *outDir, *workload, *seed, *seconds, *trace == 1, *quick)
	default:
		err = runSuite(os.Stdout, *outDir, *workload, *seed, *rounds, *quick)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// procStart stands in for the launch time when a child is started by hand.
var procStart = time.Now()

// runChild runs one segment, or the probe phase, and prints its report.
func runChild(o childOpts) error {
	var seg *segment
	var err error
	if o.workload == "probes" {
		tr := &spans{origin: o.origin, workload: "probes", segment: o.index}
		seg = &segment{Workload: "probes", Seed: o.seed, Index: o.index}
		t0 := time.Now()
		seg.Layer = runProbes(tr, o.quick)
		seg.MeasureS = time.Since(t0).Seconds()
		seg.Spans = tr.list
	} else if seg, err = runSegment(o); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(seg)
}
