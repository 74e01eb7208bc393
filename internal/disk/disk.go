// Package disk models a single mechanical disk with an elevator (C-LOOK)
// request scheduler, the substrate behind the paper's disk-head-scheduling
// benchmark (Figure 17).
//
// The paper's test reads random 4 KB blocks from a 1 GB file on a 7200 RPM
// EIDE disk through Linux AIO, so every concurrent thread's request sits in
// the kernel's elevator queue at once; throughput rises with concurrency
// because a deeper queue lets the elevator service requests in head order,
// shortening seeks. This model reproduces exactly that mechanism: a
// request's service time is seek(distance) + rotational latency + transfer,
// requests are dispatched in C-LOOK order from the pending queue, and time
// is charged on the package's vclock.Clock so results are deterministic.
//
// Geometry defaults are calibrated so random 4 KB reads land in the
// paper's 0.52–0.68 MB/s band (see EXPERIMENTS.md).
package disk

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"hybrid/internal/faults"
	"hybrid/internal/stats"
	"hybrid/internal/vclock"
)

// BlockSize is the disk's addressable unit.
const BlockSize = 4096

// Errors delivered through Request.Fail under fault injection.
var (
	// ErrIO is a transient device error: the request failed but a retry
	// of the same blocks may succeed.
	ErrIO = errors.New("disk: input/output error (EIO)")
	// ErrBadSector is an unrecoverable medium error: the fault plan
	// marks the block permanently bad, so every retry fails the same way.
	ErrBadSector = errors.New("disk: unrecoverable medium error (bad sector)")
)

// maxLatencySpike bounds an injected service-time spike — the cost of a
// drive internally retrying or remapping a marginal sector (tens of
// milliseconds on 2006 hardware).
const maxLatencySpike = 20 * time.Millisecond

// Scheduler selects the request-dispatch policy.
type Scheduler int

const (
	// CLOOK is the elevator: sweep toward higher blocks, wrap to the
	// lowest pending block (the Linux 2.6 default family; the mechanism
	// behind Figure 17's rising curve).
	CLOOK Scheduler = iota
	// FCFS services requests in arrival order — the ablation baseline
	// that shows concurrency alone buys nothing without the elevator.
	FCFS
)

func (s Scheduler) String() string {
	if s == FCFS {
		return "FCFS"
	}
	return "C-LOOK"
}

// Geometry parameterizes the service-time model.
type Geometry struct {
	// Blocks is the number of BlockSize blocks on the device.
	Blocks int64
	// SeekMin is the single-track seek time; SeekMax the full-stroke
	// seek. Intermediate distances interpolate with a square-root curve,
	// the usual first-order model of head acceleration.
	SeekMin, SeekMax time.Duration
	// RotHalf is the average rotational latency (half a revolution).
	RotHalf time.Duration
	// TransferPerByte is the media transfer rate expressed as time per
	// byte.
	TransferPerByte time.Duration
	// PerRequest is fixed per-request controller/command overhead.
	PerRequest time.Duration
}

// DefaultGeometry models the paper's 7200 RPM, 80 GB EIDE disk (2006
// vintage: ~0.8 ms track-to-track, ~8.5 ms full stroke, 4.17 ms average
// rotational latency, ~55 MB/s media rate).
func DefaultGeometry() Geometry {
	return Geometry{
		Blocks:          20 * 1024 * 1024, // 80 GB
		SeekMin:         800 * time.Microsecond,
		SeekMax:         8500 * time.Microsecond,
		RotHalf:         4170 * time.Microsecond,
		TransferPerByte: time.Second / (55 * 1024 * 1024),
		PerRequest:      200 * time.Microsecond,
	}
}

// BenchGeometry models the 4 GB benchmark partition of the same disk,
// calibrated against the paper's Figure 17 band (0.52-0.68 MB/s for
// random 4 KB reads): short seeks on 2006 EIDE hardware were dominated by
// arm settle time (~1.2 ms), and a random seek across the 1 GB test file
// cost ~3.3 ms. See EXPERIMENTS.md for the calibration arithmetic.
func BenchGeometry() Geometry {
	return Geometry{
		Blocks:          1024 * 1024, // 4 GB partition
		SeekMin:         1200 * time.Microsecond,
		SeekMax:         8600 * time.Microsecond,
		RotHalf:         4170 * time.Microsecond,
		TransferPerByte: time.Second / (55 * 1024 * 1024),
		PerRequest:      120 * time.Microsecond,
	}
}

// Request is one I/O request. Done is invoked at completion time, on the
// clock's callback context (it holds the clock busy; hand work onward
// before returning). A completed request may be submitted again, from its
// own Done or Fail included: the disk holds no reference to it once it
// calls them.
type Request struct {
	Block int64 // starting block
	Count int   // blocks to transfer
	Write bool
	// Extra is additional service time charged to this request; the NPTL
	// baseline uses it to model kernel-thread wakeup cost per blocking
	// I/O (see internal/nptl).
	Extra time.Duration
	// Done receives the completion callback.
	Done func()
	// Fail, if non-nil, receives the completion instead of Done when the
	// fault layer errors the request. A request with no Fail handler
	// falls back to Done (legacy callers that cannot observe errors).
	Fail func(error)

	seq      uint64 // arrival order, for deterministic tie-breaks
	faultErr error  // decided at dispatch, delivered at completion
}

// Disk is the device model. Submit may be called from any goroutine in
// either timing domain.
type Disk struct {
	geom  Geometry
	clock vclock.Clock
	sched Scheduler

	mu       sync.Mutex
	pending  []*Request // sorted by Block ascending (C-LOOK) or arrival (FCFS)
	head     int64      // current head position, in blocks
	busy     bool       // a request is in service
	seq      uint64
	inflight *Request
	// done is the completion timer, bound to complete: one request is in
	// service at a time, and the callback finds it in inflight.
	done *vclock.Timer

	// metrics: queue depth and seek distance are sampled at every
	// dispatch — the two distributions that explain Figure 17's rising
	// curve (deeper queue → shorter seeks); their sums are the total
	// queue depth and head movement. sweeps counts C-LOOK wrap-arounds
	// (one per elevator pass).
	metrics                              *stats.Registry
	queueHist                            *stats.Histogram
	seekHist                             *stats.Histogram
	requests, blocks, dispatches, sweeps *stats.Counter

	// faults, when non-nil, errors requests (transient EIO, permanent
	// bad sectors via the stateless hard-key set) and injects service-
	// time spikes, per its deterministic plan.
	faults *faults.Injector
}

// New creates a disk with the given geometry on the given clock, using
// the C-LOOK elevator.
func New(clock vclock.Clock, geom Geometry) *Disk {
	return NewWithScheduler(clock, geom, CLOOK)
}

// NewWithScheduler creates a disk with an explicit dispatch policy.
func NewWithScheduler(clock vclock.Clock, geom Geometry, sched Scheduler) *Disk {
	if geom.Blocks <= 0 {
		geom = DefaultGeometry()
	}
	d := &Disk{geom: geom, clock: clock, sched: sched, metrics: stats.NewRegistry()}
	d.done = clock.NewTimer(d.complete)
	d.queueHist = d.metrics.Histogram("queue_depth", stats.PowersOfTwo(1024)...)
	d.seekHist = d.metrics.Histogram("seek_blocks", stats.PowersOfTwo(geom.Blocks)...)
	d.requests, d.blocks = d.metrics.Counter("requests"), d.metrics.Counter("blocks")
	d.dispatches, d.sweeps = d.metrics.Counter("dispatches"), d.metrics.Counter("sweeps")
	d.metrics.GaugeFunc("pending", func() int64 { return int64(d.QueueDepth()) })
	return d
}

// Metrics exposes the disk's registry for the observability layer.
func (d *Disk) Metrics() *stats.Registry { return d.metrics }

// SetFaults attaches a fault injector: subsequent requests may fail with
// ErrIO (transient) or ErrBadSector (permanent, per the plan's stateless
// bad-block set) and may be charged extra service time. Call during
// setup, before the disk is shared between goroutines.
func (d *Disk) SetFaults(in *faults.Injector) { d.faults = in }

// Geometry reports the disk's geometry.
func (d *Disk) Geometry() Geometry { return d.geom }

// QueueDepth reports the number of requests pending or in service.
func (d *Disk) QueueDepth() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.pending)
	if d.busy {
		n++
	}
	return n
}

// SeekTime models head movement over the given distance in blocks.
func (g Geometry) SeekTime(distance int64) time.Duration {
	if distance <= 0 {
		return 0
	}
	frac := math.Sqrt(float64(distance) / float64(g.Blocks))
	return g.SeekMin + time.Duration(float64(g.SeekMax-g.SeekMin)*frac)
}

// ServiceTime reports the modelled service time for a request starting at
// block given the current head position. Exposed for calibration tests.
func (g Geometry) ServiceTime(head, block int64, count int) time.Duration {
	dist := block - head
	if dist < 0 {
		dist = -dist
	}
	transfer := time.Duration(count*BlockSize) * g.TransferPerByte
	return g.PerRequest + g.SeekTime(dist) + g.RotHalf + transfer
}

// Submit queues a request. If Block is out of range the request fails
// immediately by invoking Done after zero time (the caller sees a normal
// completion; range validation belongs to the file layer above).
func (d *Disk) Submit(r *Request) error {
	if r.Count <= 0 || r.Block < 0 || r.Block+int64(r.Count) > d.geom.Blocks {
		return fmt.Errorf("disk: request [%d,+%d) outside device of %d blocks",
			r.Block, r.Count, d.geom.Blocks)
	}
	d.mu.Lock()
	d.seq++
	r.seq, r.faultErr = d.seq, nil // a request record may be submitted again once complete
	d.insertPending(r)
	d.requests.Inc()
	var next *Request
	var service time.Duration
	if !d.busy {
		next, service = d.dispatchLocked()
	}
	d.mu.Unlock()
	// Scheduling happens outside d.mu: on a quiescent virtual clock the
	// completion callback can run synchronously inside Reset, and it
	// re-acquires the lock.
	if next != nil {
		d.done.Reset(service)
	}
	return nil
}

// insertPending keeps the queue sorted by block for C-LOOK selection, or
// in arrival order for FCFS. Called with d.mu held.
func (d *Disk) insertPending(r *Request) {
	if d.sched == FCFS {
		d.pending = append(d.pending, r)
		return
	}
	i := sort.Search(len(d.pending), func(i int) bool {
		if d.pending[i].Block != r.Block {
			return d.pending[i].Block > r.Block
		}
		return d.pending[i].seq > r.seq
	})
	d.pending = append(d.pending, nil)
	copy(d.pending[i+1:], d.pending[i:])
	d.pending[i] = r
}

// dispatchLocked selects and starts service of the next request chosen by
// C-LOOK: the nearest pending block at or beyond the head, wrapping to the
// lowest block when none remain ahead. Called with d.mu held and d.busy
// false; the caller schedules the returned request's completion after
// releasing the lock.
func (d *Disk) dispatchLocked() (*Request, time.Duration) {
	if len(d.pending) == 0 {
		return nil, 0
	}
	var i int
	if d.sched == FCFS {
		i = 0 // arrival order
	} else {
		// First pending request at or past the head.
		i = sort.Search(len(d.pending), func(i int) bool {
			return d.pending[i].Block >= d.head
		})
		if i == len(d.pending) {
			i = 0 // wrap: C-LOOK sweeps one direction only
			d.sweeps.Inc()
		}
	}
	r := d.pending[i]
	copy(d.pending[i:], d.pending[i+1:])
	d.pending[len(d.pending)-1] = nil
	d.pending = d.pending[:len(d.pending)-1]

	service := d.geom.ServiceTime(d.head, r.Block, r.Count) + r.Extra
	if d.faults != nil {
		// The fault decision is made at dispatch (deterministic order —
		// the elevator fixes it) and delivered at completion. A faulted
		// request still charges full service time: the head moved and
		// the platter spun whether or not the data came back.
		r.faultErr = d.decideFault(r)
		service += d.faults.Latency(faults.DiskLatency, maxLatencySpike)
	}
	dist := r.Block - d.head
	if dist < 0 {
		dist = -dist
	}
	d.blocks.Add(uint64(r.Count))
	d.dispatches.Inc()
	d.seekHist.Observe(dist)
	d.queueHist.Observe(int64(len(d.pending) + 1))
	d.head = r.Block + int64(r.Count)
	d.busy = true
	d.inflight = r
	return r, service
}

// complete finishes the request in service and dispatches the next,
// whose completion is scheduled before this one's Done runs. Runs on the
// clock callback context.
func (d *Disk) complete() {
	d.mu.Lock()
	r := d.inflight
	d.busy = false
	d.inflight = nil
	next, service := d.dispatchLocked()
	d.mu.Unlock()
	if next != nil {
		d.done.Reset(service)
	}
	if r.faultErr != nil && r.Fail != nil {
		r.Fail(r.faultErr)
		return
	}
	if r.Done != nil {
		r.Done()
	}
}

// decideFault draws the failure verdict for a dispatched request: a
// permanently bad block anywhere in its range, else a transient error.
func (d *Disk) decideFault(r *Request) error {
	for b := r.Block; b < r.Block+int64(r.Count); b++ {
		if d.faults.HardKey(faults.DiskHard, uint64(b)) {
			return ErrBadSector
		}
	}
	op := faults.DiskRead
	if r.Write {
		op = faults.DiskWrite
	}
	if d.faults.Fire(op) {
		return ErrIO
	}
	return nil
}
