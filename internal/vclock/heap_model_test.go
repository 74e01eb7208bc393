package vclock

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// TestEventHeapAgainstSortedModel drives the clock's event heap with a
// seeded random script — After, ReserveSeq then a late ScheduleReserved,
// Timer.Stop of live, stopped and fired timers, callbacks that schedule
// from inside a batch, and fire — beside a model that is nothing but a
// slice sorted by (when, seq). Each fire step must run exactly the model's
// earliest-timestamp entries, in seq order, at that timestamp; after every
// step each queued timer's index must name its own slot and every timer
// that left the heap must carry -1.
func TestEventHeapAgainstSortedModel(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		runHeapScript(t, seed, 1500)
	}
}

type modelTimer struct {
	when Time
	seq  uint64
	id   int
}

func runHeapScript(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	c := NewVirtual()
	c.Enter() // the script's hold: nothing fires until a fire step drops it
	held := true

	var (
		live     []modelTimer // the model
		timers   []*Timer     // every timer ever made, by id
		reserved []uint64     // ReserveSeq results not yet handed back
		nextSeq  uint64       // mirrors the clock's counter
		fired    []int
	)
	// Distinct timestamps are few so batches hold several timers and
	// ties on when are decided by seq.
	delay := func() Duration { return Duration(rng.Intn(12)) * time.Microsecond }

	var callback func(id int, child Duration) func()
	schedule := func(when Time, seq uint64, arm func(fn func()) *Timer, child Duration) {
		id := len(timers)
		tm := arm(callback(id, child))
		if tm.when != when || tm.seq != seq {
			t.Fatalf("seed %d: timer %d queued at (%d, %d), model says (%d, %d)", seed, id, tm.when, tm.seq, when, seq)
		}
		timers = append(timers, tm)
		live = append(live, modelTimer{when, seq, id})
	}
	after := func(d, child Duration) {
		nextSeq++
		schedule(c.Now()+Time(d), nextSeq, func(fn func()) *Timer { return c.After(d, fn) }, child)
	}
	// A callback stops the advance loop after its own batch by taking the
	// script's hold back, and one in four schedules a follow-up from inside
	// the batch (child >= 0), the way device models re-arm themselves.
	callback = func(id int, child Duration) func() {
		return func() {
			fired = append(fired, id)
			if !held {
				c.Enter()
				held = true
			}
			if child >= 0 {
				after(child, -1)
			}
		}
	}

	check := func(step int) {
		t.Helper()
		if len(c.events) != len(live) {
			t.Fatalf("seed %d step %d: heap holds %d timers, model %d", seed, step, len(c.events), len(live))
		}
		for i, tm := range c.events {
			if tm.index != i {
				t.Fatalf("seed %d step %d: timer in slot %d has index %d", seed, step, i, tm.index)
			}
		}
		queued := make(map[int]bool, len(live))
		for _, m := range live {
			queued[m.id] = true
		}
		for id, tm := range timers {
			if !queued[id] && tm.index != -1 {
				t.Fatalf("seed %d step %d: timer %d left the heap with index %d", seed, step, id, tm.index)
			}
		}
	}

	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op < 4:
			child := Duration(-1)
			if rng.Intn(4) == 0 {
				child = delay()
			}
			after(delay(), child)
		case op < 5:
			nextSeq++
			if got := c.ReserveSeq(); got != nextSeq {
				t.Fatalf("seed %d step %d: ReserveSeq = %d, model %d", seed, step, got, nextSeq)
			}
			reserved = append(reserved, nextSeq)
		case op < 6 && len(reserved) > 0:
			// Hand back a reservation, not necessarily the oldest, so a
			// small seq enters the heap after larger ones.
			i := rng.Intn(len(reserved))
			seq := reserved[i]
			reserved = slices.Delete(reserved, i, i+1)
			when := c.Now() + Time(delay())
			schedule(when, seq, func(fn func()) *Timer { return c.ScheduleReserved(when, seq, fn) }, -1)
		case op < 8 && len(timers) > 0:
			id := rng.Intn(len(timers))
			i := slices.IndexFunc(live, func(m modelTimer) bool { return m.id == id })
			if got := timers[id].Stop(); got != (i >= 0) {
				t.Fatalf("seed %d step %d: Stop of timer %d = %v, model says queued = %v", seed, step, id, got, i >= 0)
			}
			if i >= 0 {
				live = slices.Delete(live, i, i+1)
			}
		default:
			slices.SortFunc(live, func(a, b modelTimer) int {
				return cmp.Or(cmp.Compare(a.when, b.when), cmp.Compare(a.seq, b.seq))
			})
			var want []int
			at := c.Now()
			if len(live) > 0 {
				at = live[0].when
			}
			for len(live) > 0 && live[0].when == at {
				want = append(want, live[0].id)
				live = live[1:]
			}
			fired = fired[:0]
			held = false
			c.Exit()
			if !held {
				c.Enter()
				held = true
			}
			if !slices.Equal(fired, want) {
				t.Fatalf("seed %d step %d: fired %v, model says %v", seed, step, fired, want)
			}
			if c.Now() != at {
				t.Fatalf("seed %d step %d: fired at %v, model says %v", seed, step, c.Now(), at)
			}
		}
		check(step)
	}
}
