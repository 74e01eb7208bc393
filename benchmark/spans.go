package main

import (
	"strings"
	"time"
)

// span is one traced interval of a child process, recorded from outside
// the layers: around set-up steps, phases and probes. Times are
// nanoseconds since the driver launched the child.
type span struct {
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Parent   string `json:"parent"`
	Workload string `json:"workload"`
	Segment  int    `json:"segment"`
}

// spans keeps a child's spans in memory; the driver writes them out
// when the child has exited.
type spans struct {
	origin   time.Time
	workload string
	segment  int
	list     []span
}

// begin opens a span and returns the function that closes it. A name's
// part before the first dot is its parent ("setup.herd" belongs to
// "setup", "probes.core.step_ns" to "probes").
func (s *spans) begin(name string) (end func()) {
	start := time.Since(s.origin)
	return func() {
		parent, _, dotted := strings.Cut(name, ".")
		if !dotted {
			parent = ""
		}
		s.list = append(s.list, span{
			Name: name, StartNs: int64(start), EndNs: int64(time.Since(s.origin)),
			Parent: parent, Workload: s.workload, Segment: s.segment,
		})
	}
}
