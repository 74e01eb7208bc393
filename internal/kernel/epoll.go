package kernel

import (
	"fmt"
	"time"

	"hybrid/internal/faults"
)

// This file implements the kernel's readiness notification, the stand-in
// for Linux epoll (§4.5). A watch is one-shot and level-triggered: if the
// descriptor already satisfies the mask, it fires immediately; otherwise
// it fires on the state change that first satisfies it. One-shot matches
// how the paper uses epoll — each sys_epoll_wait hands the waiting
// thread's continuation to the event source, and the event gives it back.
//
// The simulated kernel produces readiness synchronously, inside the call
// that causes it, so there is nothing to harvest: the continuation runs
// right there, in both timing domains. A harvest loop belongs to an event
// source that needs one — a real epoll_wait — not to this one.

// watch is a registered one-shot readiness subscription, parked by value
// on the one wait list its direction names.
type watch struct {
	mask Event
	fn   func(Event)
}

// Watch subscribes fn to one readiness event on fd for mask (hang-up is
// always included). A watch names one direction: a mask with both
// EventRead and EventWrite is ErrInvalid. fn runs exactly once: inside
// this call if fd is already ready, else inside the call whose state
// change makes it ready — or, under an injected epoll.delay, from the
// clock at the delayed time. fn must not block; the hybrid runtime's
// wakes a parked thread.
func (k *Kernel) Watch(fd FD, mask Event, fn func(Event)) error {
	if mask&EventRead != 0 && mask&EventWrite != 0 {
		return fmt.Errorf("watch fd %d for %v: one direction per watch: %w", fd, mask, ErrInvalid)
	}
	e, err := k.lookup(fd)
	if err != nil {
		return err
	}
	// The object checks current readiness under its own lock and either
	// fires the watch now or parks it on its wait list.
	e.addWatch(watch{mask: mask | EventHup, fn: fn})
	return nil
}

// maxEpollDelay bounds an injected readiness delay: long enough to
// reorder wakeups against I/O completions, short enough that workloads
// still make progress.
const maxEpollDelay = time.Millisecond

// fire delivers the event. Called by kernel objects when a watch's mask
// becomes satisfied; the caller has already removed the watch from its
// wait list (one-shot).
func (k *Kernel) fire(w watch, ev Event) {
	// An injected delay postpones delivery on the clock. No busy hold is
	// taken for the interim: the pending timer is what keeps virtual time
	// from idling past the wakeup, and the timer callback runs with its
	// own hold.
	if d := k.faults.Latency(faults.EpollDelay, maxEpollDelay); d > 0 {
		k.clock.After(d, func() { k.deliver(w, ev) })
		return
	}
	k.deliver(w, ev)
}

// deliver hands the event to the watcher: the one delivery path.
func (k *Kernel) deliver(w watch, ev Event) {
	k.wakeups.Inc()
	w.fn(ev)
}

// fireAll dispatches ev to each collected watch, in list order. Call
// without holding the object lock. Each watch takes its own injected
// latency draw (inside fire), so a seeded fault plan draws in list order;
// delayed watches peel onto clock timers and fire in (when, seq) order at
// their due timestamps.
func (k *Kernel) fireAll(watches []watch, ev Event) {
	for _, w := range watches {
		k.fire(w, ev)
	}
}

// waitList is the per-object list of parked watches, embedded in every
// pollable kernel object. Methods must be called with the object's lock
// held; fire-outs are returned so the caller can invoke them after
// unlocking (a watch's fn may re-enter the kernel).
type waitList struct{ watches []watch }

// add parks a watch.
func (wl *waitList) add(w watch) { wl.watches = append(wl.watches, w) }

// collect removes the watches whose mask intersects ev and appends them
// to fired — a caller's stack array, so a wakeup allocates nothing.
func (wl *waitList) collect(ev Event, fired []watch) []watch {
	if len(wl.watches) == 0 || ev == 0 {
		return fired
	}
	kept := wl.watches[:0]
	for _, w := range wl.watches {
		if w.mask&ev != 0 {
			fired = append(fired, w)
		} else {
			kept = append(kept, w)
		}
	}
	clear(wl.watches[len(kept):])
	wl.watches = kept
	return fired
}

// firedBuf sizes the stack array a wakeup collects into; more watches on
// one list than this spill to the heap.
const firedBuf = 4
