// Package timerwheel provides a hierarchical timer wheel for per-connection
// deadlines: O(1) schedule and cancel regardless of how many timers are
// pending, where the clock's binary heap costs O(log n) per operation. At
// millions of mostly-idle connections — every one holding a retransmit or
// idle-reap deadline that is nearly always cancelled before it fires — the
// wheel turns timer maintenance from the dominant per-ACK cost into a
// pointer splice.
//
// # Determinism
//
// The wheel is exact, not approximate. Classic wheels round deadlines to
// slot granularity; that would move every virtual-time figure in this
// repository. Instead the wheel is a staging area in front of the
// VirtualClock's event heap:
//
//   - Schedule reserves a global sequence number from the clock
//     immediately (ReserveSeq), so the timer's position in the
//     deterministic (when, seq) event order is fixed at scheduling time
//     exactly as if clock.After had been called.
//   - Timers due within the current level-0 slot go straight into the
//     clock's heap (ScheduleReserved) at their exact deadline.
//   - Farther timers are parked in slot buckets — intrusive doubly-linked
//     lists, O(1) insert and unlink — at one of several levels whose slot
//     widths grow by 64x per level.
//   - A single clock event (the "tick") is kept armed at the earliest
//     occupied slot's start time. Slots cover the half-open window
//     (start, start+width], so when the tick fires at a slot's start,
//     every deadline in the slot is still strictly in the future: level-0
//     slots hand their timers to the clock heap at exact (when, seq);
//     higher-level slots cascade theirs into finer levels. Firing order
//     and firing times are therefore byte-identical to a heap-only
//     implementation — the wheel only changes *when bookkeeping happens*,
//     never when callbacks run.
//
// The tick is disarmed whenever the last bucketed timer is cancelled, so a
// drained wheel schedules no events and cannot hold a simulation's virtual
// time hostage past its real activity (idle detection, deadlock reports
// and pinned end-of-run timestamps all stay exact).
//
// On a real clock the wheel degrades to a passthrough over clock.After:
// wall-clock timers are host-scheduled anyway, so there is no
// deterministic order to preserve.
//
// Like Clock.After, Schedule and Stop must be called either from a
// dispatch callback or while the caller holds the clock (Enter); the lock
// order is wheel mutex, then clock mutex.
package timerwheel

import (
	"math/bits"
	"sync"

	"hybrid/internal/vclock"
)

const (
	slotBits = 6
	numSlots = 1 << slotBits // 64 slots per level
	slotMask = numSlots - 1
	// numLevels at the default 1ms granularity spans ~4.6 hours before
	// the top level starts clamping (clamped timers just cascade more
	// than once; they still fire exactly on time).
	numLevels = 4
)

// DefaultGranularity is the level-0 slot width. TCP retransmit timers sit
// at tens of milliseconds and lifecycle deadlines at tens to thousands,
// so 1ms keeps near deadlines a handful of slots away while level 3 still
// covers hours.
const DefaultGranularity vclock.Duration = 1e6 // 1ms

// Stats is a snapshot of wheel activity counters, for benchmarks and the
// capacity figures.
type Stats struct {
	Scheduled uint64 // Schedule calls
	Stopped   uint64 // Stop calls that cancelled a live timer
	Direct    uint64 // timers that bypassed the buckets (due within the current slot)
	Cascaded  uint64 // timer moves out of a bucket at tick time (handoff or re-place)
	Ticks     uint64 // tick events fired (including spurious post-cancel ticks)
}

// Timer is a handle to a deadline scheduled on a Wheel.
type Timer struct {
	w    *Wheel
	fn   func()
	when vclock.Time
	seq  uint64

	// Exactly one of the following is meaningful at a time: while parked
	// in a bucket, level/slot locate it and prev/next link it; once handed
	// to the clock (directly or by cascade), vt owns it.
	level      int8
	inBucket   bool
	slot       uint8
	prev, next *Timer
	vt         *vclock.Timer
}

// Stop cancels the timer if it has not fired. It reports whether the
// timer was cancelled before firing. Bucketed timers unlink in O(1).
func (t *Timer) Stop() bool {
	if t == nil || t.w == nil {
		return false
	}
	w := t.w
	if w.vc == nil { // real-clock passthrough
		return t.vt.Stop()
	}
	w.mu.Lock()
	if t.inBucket {
		w.unlinkLocked(t)
		t.fn = nil
		w.stats.Stopped++
		if w.live == 0 && w.tick != nil {
			// Nothing left to cascade: disarm so an empty wheel
			// schedules no events.
			tick := w.tick
			w.tick = nil
			w.mu.Unlock()
			tick.Stop()
			return true
		}
		w.mu.Unlock()
		return true
	}
	vt := t.vt
	w.mu.Unlock()
	if vt != nil && vt.Stop() {
		w.mu.Lock()
		w.stats.Stopped++
		w.mu.Unlock()
		return true
	}
	return false
}

// Wheel schedules deadlines hierarchically in front of a clock. The zero
// value is not usable; construct with New.
type Wheel struct {
	clk  vclock.Clock
	vc   *vclock.VirtualClock // nil when clk is a real clock (passthrough)
	gran int64                // level-0 slot width, ns

	mu     sync.Mutex
	occ    [numLevels]uint64           // per-level occupancy bitmaps
	bucket [numLevels][numSlots]*Timer // intrusive list heads
	live   int                         // timers currently parked in buckets
	tick   *vclock.Timer               // armed cascade event, nil when no bucket is occupied
	tickAt vclock.Time                 // slot start the tick is armed for
	stats  Stats
}

// New returns a wheel over clk with the default granularity.
func New(clk vclock.Clock) *Wheel { return NewGranular(clk, DefaultGranularity) }

// NewGranular returns a wheel whose level-0 slots are gran wide.
func NewGranular(clk vclock.Clock, gran vclock.Duration) *Wheel {
	if gran <= 0 {
		gran = DefaultGranularity
	}
	w := &Wheel{clk: clk, gran: int64(gran)}
	if vc, ok := clk.(*vclock.VirtualClock); ok {
		w.vc = vc
	}
	return w
}

// width reports the slot width of a level in ns.
func (w *Wheel) width(level int) int64 { return w.gran << (slotBits * level) }

// Schedule arranges for fn to run d from now, exactly as clk.After(d, fn)
// would, in O(1) amortized time. The callback runs during a dispatch
// batch; the same hand-off rules as Clock.After apply.
func (w *Wheel) Schedule(d vclock.Duration, fn func()) *Timer {
	if w.vc == nil {
		return &Timer{w: w, vt: w.clk.After(d, fn)}
	}
	if d < 0 {
		d = 0
	}
	// Reserve the timer's position in the global event order now; the
	// deadline may be handed to the clock's heap much later (at cascade
	// time) without changing when or in what order it fires.
	seq := w.vc.ReserveSeq()
	now := w.vc.Now()
	t := &Timer{w: w, fn: fn, when: now + vclock.Time(d), seq: seq}

	w.mu.Lock()
	w.stats.Scheduled++
	w.placeLocked(t, now)
	w.mu.Unlock()
	return t
}

// placeLocked routes a timer either straight into the clock's heap (due
// within the current level-0 slot) or into the coarsest-fitting bucket.
// now must be the current clock time. Called with w.mu held.
func (w *Wheel) placeLocked(t *Timer, now vclock.Time) {
	when := int64(t.when)
	level := 0
	for ; level < numLevels; level++ {
		wd := w.width(level)
		s := (when - 1) / wd // slot covering (s*wd, (s+1)*wd]
		c := int64(now) / wd // slot containing now
		d := s - c
		if level == 0 && d <= 0 {
			// Due within the current slot (or already due): the tick
			// for this window can no longer be armed in the future, so
			// hand the exact deadline to the clock immediately.
			w.stats.Direct++
			fn := t.fn
			t.fn = nil
			t.vt = w.vc.ScheduleReserved(t.when, t.seq, fn)
			return
		}
		if d < numSlots {
			w.insertLocked(t, level, s)
			return
		}
		if level == numLevels-1 {
			// Beyond the horizon: clamp into the farthest top-level
			// slot; each of its ticks re-places the timer closer.
			w.insertLocked(t, level, c+slotMask)
			return
		}
	}
}

// insertLocked links t at the head of bucket (level, s%64), where s is the
// absolute slot index, and keeps the cascade tick armed at the earliest
// occupied slot's start.
func (w *Wheel) insertLocked(t *Timer, level int, s int64) {
	idx := uint8(s & slotMask)
	t.level = int8(level)
	t.slot = idx
	t.inBucket = true
	t.prev = nil
	t.next = w.bucket[level][idx]
	if t.next != nil {
		t.next.prev = t
	}
	w.bucket[level][idx] = t
	w.occ[level] |= 1 << idx
	w.live++

	start := vclock.Time(s * w.width(level))
	if w.tick == nil || start < w.tickAt {
		if w.tick != nil {
			w.tick.Stop()
		}
		w.armTickLocked(start)
	}
}

// armTickLocked arms the cascade event at the absolute time start.
func (w *Wheel) armTickLocked(start vclock.Time) {
	w.tickAt = start
	d := vclock.Duration(start - w.vc.Now())
	if d < 0 {
		d = 0
	}
	w.tick = w.vc.After(d, w.onTick)
}

// unlinkLocked removes t from its bucket in O(1).
func (w *Wheel) unlinkLocked(t *Timer) {
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		w.bucket[t.level][t.slot] = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	}
	if w.bucket[t.level][t.slot] == nil {
		w.occ[t.level] &^= 1 << t.slot
	}
	t.prev, t.next = nil, nil
	t.inBucket = false
	w.live--
}

// nextOccupiedLocked reports the earliest occupied absolute slot at level
// whose index is >= from, or ok=false when the level is empty. Occupied
// slots always lie within [c, c+63] of the current slot c (placement
// guarantees d >= 1 and the due slot is drained at its start), so the
// absolute index is recoverable from the 64-bit occupancy map.
func (w *Wheel) nextOccupiedLocked(level int, from int64) (int64, bool) {
	occ := w.occ[level]
	if occ == 0 {
		return 0, false
	}
	base := uint(from) & slotMask
	if hi := occ >> base; hi != 0 {
		return from + int64(bits.TrailingZeros64(hi)), true
	}
	lo := occ & ((1 << base) - 1)
	return from + int64(numSlots-int(base)) + int64(bits.TrailingZeros64(lo)), true
}

// onTick is the cascade event: drain every slot whose window has started,
// then re-arm at the next occupied slot. Runs inside a clock batch, so
// ScheduleReserved and After never advance time reentrantly here.
func (w *Wheel) onTick() {
	w.mu.Lock()
	w.tick = nil
	w.stats.Ticks++
	now := w.vc.Now()
	for level := 0; level < numLevels; level++ {
		wd := w.width(level)
		c := int64(now) / wd
		for {
			s, ok := w.nextOccupiedLocked(level, c)
			if !ok || s*wd > int64(now) {
				break
			}
			// Drain the due slot: every deadline in it lies in
			// (s*wd, (s+1)*wd], strictly after now, so re-placement
			// either hands it to the clock heap (level 0) or moves it
			// to a finer level — never to another due slot.
			idx := uint8(s & slotMask)
			head := w.bucket[level][idx]
			w.bucket[level][idx] = nil
			w.occ[level] &^= 1 << idx
			for t := head; t != nil; {
				next := t.next
				t.prev, t.next = nil, nil
				t.inBucket = false
				w.live--
				w.stats.Cascaded++
				w.placeLocked(t, now)
				t = next
			}
		}
	}
	if w.live > 0 {
		// Re-arm at the earliest occupied slot across all levels.
		best := vclock.Time(0)
		have := false
		for level := 0; level < numLevels; level++ {
			wd := w.width(level)
			if s, ok := w.nextOccupiedLocked(level, int64(now)/wd); ok {
				if start := vclock.Time(s * wd); !have || start < best {
					best, have = start, true
				}
			}
		}
		if have {
			w.armTickLocked(best)
		}
	}
	w.mu.Unlock()
}

// Stats returns a snapshot of the wheel's activity counters.
func (w *Wheel) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}
