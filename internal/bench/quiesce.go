package bench

import (
	"fmt"
	"strings"
	"time"

	"hybrid/internal/bufpool"
	"hybrid/internal/core"
	"hybrid/internal/httpd"
	"hybrid/internal/kernel"
)

// Quiescence is the resting state a drained system must return to: what
// was outstanding before the run (the buffer pools are process-wide, so
// their baseline is recorded, not assumed zero) plus what the harness
// keeps on purpose. Leak freedom at quiescence is checked in one place —
// by every site's teardown and by httpd's serve-path lattice.
type Quiescence struct {
	RT  *core.Runtime
	K   *kernel.Kernel
	Srv *httpd.Server
	// What stays by design: permanent threads (accept loops, both halves
	// of parked connections), open descriptors (listeners, parked
	// connections' two ends), connections the server keeps serving.
	Threads int64
	FDs     int
	Conns   int64

	pooled, segs int64
}

// quiesceWait bounds how long a finished workload may take to drain, in
// wall time; virtual-time waits cost none of it.
const quiesceWait = 30 * time.Second

// MarkQuiescence records the pools' levels before a run.
func MarkQuiescence(rt *core.Runtime, k *kernel.Kernel, srv *httpd.Server) Quiescence {
	return Quiescence{
		RT: rt, K: k, Srv: srv,
		pooled: bufpool.Outstanding(), segs: bufpool.SegOutstanding(),
	}
}

// Check waits for the runtime to drain to its permanent threads and then
// names everything still held: threads, connections, descriptors, pooled
// buffers and ring segments, uncaught exceptions. A connection the server
// keeps holds its one pooled read buffer; a kept connection may also be
// stalled mid-response with bytes in its rings (ConnMemTest's active
// phase), so the segment arm applies only when none stay.
func (q Quiescence) Check() error {
	drained := make(chan struct{})
	go func() { q.RT.WaitLive(q.Threads); close(drained) }()
	select {
	case <-drained:
	case <-time.After(quiesceWait):
	}
	var held []string
	hold := func(what string, got, want int64) {
		if got != want {
			held = append(held, fmt.Sprintf("%d %s (want %d)", got, what, want))
		}
	}
	hold("live threads", q.RT.Live(), q.Threads)
	hold("active connections", q.Srv.ActiveConns(), q.Conns)
	hold("open FDs", int64(q.K.OpenFDs()), int64(q.FDs))
	hold("pooled buffers outstanding", bufpool.Outstanding(), q.pooled+q.Conns)
	if q.Conns == 0 {
		hold("ring segments outstanding", bufpool.SegOutstanding(), q.segs)
	}
	if errs := q.RT.UncaughtErrors(); len(errs) > 0 {
		held = append(held, fmt.Sprintf("uncaught exceptions %v", errs))
	}
	if held == nil {
		return nil
	}
	return fmt.Errorf("not quiescent: %s", strings.Join(held, "; "))
}
