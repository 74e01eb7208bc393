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

// TestOwnedTimerMatchesAfter is the owned timer's oracle. A seeded script
// of Reset, Stop and advance steps over a few owned timers runs on one
// clock; on a second clock the same script runs the way callers spelled a
// re-armable deadline before owned timers existed: every arm a fresh
// After, every Stop and re-arm a generation bump, and a callback that
// finds its generation stale does nothing. Callbacks themselves re-arm
// and stop other timers, drawing from a per-clock RNG in firing order, so
// stale batch slots are exercised. The two (time, id) firing logs must be
// identical.
func TestOwnedTimerMatchesAfter(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		owned := runOwnedScript(seed, 800, true)
		after := runOwnedScript(seed, 800, false)
		if len(owned) < 100 {
			t.Fatalf("seed %d: only %d fires; the script exercises too little", seed, len(owned))
		}
		if !slices.Equal(owned, after) {
			i := 0
			for i < len(owned) && i < len(after) && owned[i] == after[i] {
				i++
			}
			t.Fatalf("seed %d: firing logs diverge at entry %d of %d/%d (owned %v, After %v)",
				seed, i, len(owned), len(after), owned[i:min(i+3, len(owned))], after[i:min(i+3, len(after))])
		}
	}
}

type ownedFire struct {
	at Time
	id int
}

// runOwnedScript runs the oracle's script on a fresh clock, with owned
// timers or with After plus generations, and returns the firing log.
func runOwnedScript(seed int64, steps int, owned bool) []ownedFire {
	const timers = 6
	script := rand.New(rand.NewSource(seed))   // the test's own steps
	inBatch := rand.New(rand.NewSource(-seed)) // callbacks' choices, drawn in firing order
	c := NewVirtual()
	c.Enter()
	held := true
	var log []ownedFire
	delay := func(r *rand.Rand) Duration { return Duration(r.Intn(8)) * time.Microsecond }
	// armed mirrors which timers have an arm pending. An advance step runs
	// only when one does: otherwise the After clock would still move its
	// time to the stale events it skips, and later arms would land at
	// other absolute times.
	armed := make([]bool, timers)

	var arm func(id int, d Duration)
	var disarm func(id int)
	reset := func(id int, d Duration) { armed[id] = true; arm(id, d) }
	stop := func(id int) { armed[id] = false; disarm(id) }
	fired := func(id int) {
		armed[id] = false
		log = append(log, ownedFire{c.Now(), id})
		if !held { // stop the advance loop after this batch
			c.Enter()
			held = true
		}
		switch inBatch.Intn(4) {
		case 0:
			reset(inBatch.Intn(timers), delay(inBatch))
		case 1:
			stop(inBatch.Intn(timers))
		}
	}
	if owned {
		ts := make([]*Timer, timers)
		for i := range ts {
			ts[i] = c.NewTimer(func() { fired(i) })
		}
		arm = func(id int, d Duration) { ts[id].Reset(d) }
		disarm = func(id int) { ts[id].Stop() }
	} else {
		gen := make([]int, timers)
		arm = func(id int, d Duration) {
			gen[id]++
			g := gen[id]
			c.After(d, func() {
				if gen[id] == g {
					gen[id]++ // fired: a later Stop has nothing to cancel
					fired(id)
				}
			})
		}
		disarm = func(id int) { gen[id]++ }
	}
	for step := 0; step < steps; step++ {
		switch op := script.Intn(8); {
		case op < 4:
			reset(script.Intn(timers), delay(script))
		case op < 5:
			stop(script.Intn(timers))
		case slices.Contains(armed, true):
			held = false
			c.Exit()
			if !held {
				c.Enter()
				held = true
			}
		}
	}
	return log
}
