package kernel

import (
	"sync/atomic"
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

// watch is a registered one-shot readiness subscription. A watch may be
// parked on more than one wait list (a socket watching both directions);
// claim arbitrates so it fires exactly once.
type watch struct {
	k    *Kernel
	mask Event
	fn   func(Event)
	dead atomic.Bool // claimed (fired) or cancelled
}

// claim marks the watch fired; it reports whether the caller won the
// right to deliver it.
func (w *watch) claim() bool { return w.dead.CompareAndSwap(false, true) }

// Watch subscribes fn to one readiness event on fd for mask (hang-up is
// always included). fn runs exactly once: inside this call if fd is
// already ready, else inside the call whose state change makes it ready —
// or, under an injected epoll.delay, from the clock at the delayed time.
// fn must not block; the hybrid runtime's is a thread's resume.
func (k *Kernel) Watch(fd FD, mask Event, fn func(Event)) error {
	e, err := k.lookup(fd)
	if err != nil {
		return err
	}
	// The object checks current readiness under its own lock and either
	// fires the watch now or parks it on its wait list.
	e.addWatch(&watch{k: k, mask: mask | EventHup, fn: fn})
	return nil
}

// maxEpollDelay bounds an injected readiness delay: long enough to
// reorder wakeups against I/O completions, short enough that workloads
// still make progress.
const maxEpollDelay = time.Millisecond

// fire delivers the event. Called by kernel objects when a watch's mask
// becomes satisfied; the caller has already removed the watch from its
// wait list (one-shot).
func (w *watch) fire(ev Event) {
	// An injected delay postpones delivery on the clock. No busy hold is
	// taken for the interim: the pending timer is what keeps virtual time
	// from idling past the wakeup, and the timer callback runs with its
	// own hold.
	if d := w.k.faults.Latency(faults.EpollDelay, maxEpollDelay); d > 0 {
		w.k.clock.After(d, func() { w.deliver(ev) })
		return
	}
	w.deliver(ev)
}

// deliver hands the event to the watcher: the one delivery path.
func (w *watch) deliver(ev Event) {
	w.k.counters.wakeups.Add(1)
	w.fn(ev)
}

// waitList is the per-object list of parked watches, embedded in every
// pollable kernel object. Methods must be called with the object's lock
// held; fire-outs are returned so the caller can invoke them after
// unlocking (a watch's fn may re-enter the kernel).
type waitList struct{ watches []*watch }

// add parks a watch.
func (wl *waitList) add(w *watch) { wl.watches = append(wl.watches, w) }

// collect removes and returns the watches whose mask intersects ev,
// claiming each so a copy parked on another list cannot also fire. Stale
// (already-claimed) watches encountered along the way are dropped.
func (wl *waitList) collect(ev Event) []*watch {
	if len(wl.watches) == 0 {
		return nil
	}
	var fired []*watch
	kept := wl.watches[:0]
	for _, w := range wl.watches {
		switch {
		case w.dead.Load():
			// stale: drop
		case ev != 0 && w.mask&ev != 0 && w.claim():
			fired = append(fired, w)
		default:
			kept = append(kept, w)
		}
	}
	for i := len(kept); i < len(wl.watches); i++ {
		wl.watches[i] = nil
	}
	wl.watches = kept
	return fired
}

// fireAll dispatches ev to each collected watch, in list order. Call
// without holding the object lock. Each watch takes its own injected
// latency draw (inside fire), so a seeded fault plan draws in list order;
// delayed watches peel onto clock timers and fire in (when, seq) order at
// their due timestamps.
func fireAll(watches []*watch, ev Event) {
	for _, w := range watches {
		w.fire(ev)
	}
}
