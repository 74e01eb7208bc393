package kernel

import (
	"fmt"
	"sync"
	"time"

	"hybrid/internal/faults"
	"hybrid/internal/waitq"
)

// This file implements the kernel's readiness notification, the stand-in
// for Linux epoll (§4.5). A watch is one-shot, as the paper uses epoll:
// each sys_epoll_wait hands the waiting thread to the event source, and
// the event gives it back. The simulated kernel produces readiness
// synchronously, inside the call that causes it, so there is nothing to
// harvest: the thread is woken right there, in both timing domains.

// Watch links w for one level-triggered readiness event on fd for mask
// (hang-up is always included). A watch names one direction: a mask with
// both EventRead and EventWrite is ErrInvalid. w is woken exactly once,
// the event in w.Event: inside this call if fd is already ready, else
// inside the call whose state change makes it ready — or, under an
// injected epoll.delay, from the clock. Its target's Wake must not block.
func (k *Kernel) Watch(fd FD, mask Event, w *waitq.Waiter) error {
	if mask&EventRead != 0 && mask&EventWrite != 0 {
		return fmt.Errorf("watch fd %d for %v: one direction per watch: %w", fd, mask, ErrInvalid)
	}
	e, err := k.lookup(fd)
	if err != nil {
		return err
	}
	w.Mask = uint8(mask | EventHup)
	e.addWatch(w)
	return nil
}

// park is every wait list's registration, entered with the object's lock
// mu held: it links w on list, or fires it at once if ready meets its
// mask — under the one lock, so no state change can slip between the
// check and the park.
func (k *Kernel) park(mu *sync.Mutex, ready Event, list *waitq.List, w *waitq.Waiter) {
	var now waitq.List
	ev := ready & Event(w.Mask)
	if ev == 0 {
		list.Push(w)
	} else {
		now.Push(w)
	}
	mu.Unlock()
	k.fire(now, ev)
}

// maxEpollDelay bounds an injected readiness delay: long enough to
// reorder wakeups against I/O completions, short enough that workloads
// still make progress.
const maxEpollDelay = time.Millisecond

// fire delivers ev to the watches a wakeup unlinked, in list order,
// without the object lock: each leaves the list before its wake, so a
// woken thread may watch again at once, on any goroutine. Each takes its
// own injected delay draw, so a seeded fault plan draws in list order; a
// delayed watch is delivered from a clock timer, in (when, seq) order,
// with no busy hold for the interim — the pending timer is what keeps
// virtual time from idling past the wakeup.
func (k *Kernel) fire(fired waitq.List, ev Event) {
	for w := fired.Pop(); w != nil; w = fired.Pop() {
		if d := k.faults.Latency(faults.EpollDelay, maxEpollDelay); d > 0 {
			k.clock.After(d, func() { k.deliver(w, ev) })
		} else {
			k.deliver(w, ev)
		}
	}
}

// deliver hands the event to the watcher: the one delivery path.
func (k *Kernel) deliver(w *waitq.Waiter, ev Event) {
	k.wakeups.Inc()
	w.Event = uint8(ev)
	w.Target.Wake()
}
