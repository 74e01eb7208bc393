// Package waitq is the simulated substrate's one wait list, shared by the
// kernel's pollable objects and the TCP stack's ready hooks: an intrusive
// FIFO of waiters held by value in the records that wait, so registering
// and firing allocate nothing. Its owner's lock guards a list; a wakeup
// unlinks the waiters it fires under the lock and wakes them after.
package waitq

// Waker is what a fired waiter wakes: a park record (*core.WaitNode) or
// a kernel thread of the baseline runtime.
type Waker interface{ Wake() }

// Waiter is one registration, on at most one List at a time.
type Waiter struct {
	Target Waker
	Mask   uint8 // the events it waits for (Take's filter)
	Event  uint8 // the event it was last fired with
	next   *Waiter
}

// List is a FIFO of waiters; the zero List is empty.
type List struct{ head, tail *Waiter }

// Push links w at the tail.
func (l *List) Push(w *Waiter) {
	w.next = nil
	if l.tail == nil {
		l.head = w
	} else {
		l.tail.next = w
	}
	l.tail = w
}

// Pop unlinks and returns the first waiter, or nil when l is empty.
func (l *List) Pop() *Waiter {
	w := l.head
	if w != nil {
		l.head, w.next = w.next, nil
		if l.head == nil {
			l.tail = nil
		}
	}
	return w
}

// Take unlinks and returns the waiters whose Mask meets ev, in order.
func (l *List) Take(ev uint8) (fired List) {
	var kept List
	for w := l.Pop(); w != nil; w = l.Pop() {
		if w.Mask&ev != 0 {
			fired.Push(w)
		} else {
			kept.Push(w)
		}
	}
	*l = kept
	return fired
}

// Append moves all of o's waiters to l's tail, in order.
func (l *List) Append(o *List) {
	for w := o.Pop(); w != nil; w = o.Pop() {
		l.Push(w)
	}
}

// WakeAll pops every waiter, in order, and wakes its target with ev.
func (l *List) WakeAll(ev uint8) {
	for w := l.Pop(); w != nil; w = l.Pop() {
		w.Event = ev
		w.Target.Wake()
	}
}
