package core

import "hybrid/internal/vclock"

// This file implements the paper's "system calls": monad operations that
// create one trace node each, with the continuation of the current
// computation filled into the node's sub-trace fields (Figure 9 in the
// paper). Blocking I/O interfaces — epoll, AIO, mutexes, TCP — are built
// on WaitNode (through Suspend or Poll) in their own packages, keeping the
// scheduler open to new event sources exactly as the paper advertises.

// NBIO performs a nonblocking effect on the scheduler's event loop and
// returns its result (the paper's sys_nbio). f must not block.
func NBIO[A any](f func() A) M[A] {
	return func(k func(A) Trace) Trace {
		return &NBIONode{Effect: func() Trace { return k(f()) }}
	}
}

// NBIOe performs a nonblocking effect that may fail; a non-nil error is
// raised as a monadic exception, so callers handle it with Catch just like
// any other failure.
func NBIOe[A any](f func() (A, error)) M[A] {
	return func(k func(A) Trace) Trace {
		return &NBIONode{Effect: func() Trace {
			a, err := f()
			if err != nil {
				return &ThrowNode{Err: err}
			}
			return k(a)
		}}
	}
}

// Do runs an effect for its side effects only. Equivalent to NBIO with a
// Unit result.
func Do(f func()) M[Unit] {
	return NBIO(func() Unit { f(); return Unit{} })
}

// Fork creates a new thread running child (the paper's sys_fork). The
// child starts with an empty exception-handler stack, and its trace is
// built when the fork runs, once per child.
func Fork(child M[Unit]) M[Unit] {
	return func(k func(Unit) Trace) Trace {
		return &ForkNode{Child: child, Cont: k(Unit{})}
	}
}

// Yield moves the current thread to the back of the ready queue, letting
// other threads run (the paper's sys_yield).
func Yield() M[Unit] {
	return func(k func(Unit) Trace) Trace {
		return &YieldNode{Cont: k(Unit{})}
	}
}

// Halt terminates the current thread immediately (the paper's sys_ret).
// It is polymorphic in its result type because control never returns.
func Halt[A any]() M[A] {
	return func(func(A) Trace) Trace { return ret }
}

// Throw raises an exception in the current thread (the paper's
// sys_throw). Control transfers to the nearest enclosing Catch; if there
// is none, the thread terminates and the runtime records the error
// (Runtime.UncaughtErrors).
func Throw[A any](err error) M[A] {
	return func(func(A) Trace) Trace { return &ThrowNode{Err: err} }
}

// Catch runs body with handler installed for exceptions thrown during it
// (the paper's sys_catch). The handler receives the exception and its
// result replaces the body's. Exceptions thrown by the handler itself
// propagate outward, which is how the paper's send_file re-raises after
// cleanup.
func Catch[A any](body M[A], handler func(error) M[A]) M[A] {
	return func(k func(A) Trace) Trace {
		return &CatchNode{
			Body:    body(func(a A) Trace { return &PopCatchNode{Cont: k(a)} }),
			Handler: func(err error) Trace { return handler(err)(k) },
		}
	}
}

// Finally runs body and then cleanup, whether body completed or threw; an
// exception from body is re-raised after cleanup.
func Finally[A any](body M[A], cleanup M[Unit]) M[A] {
	return Bind(
		Catch(body, func(err error) M[A] {
			return Then(cleanup, Throw[A](err))
		}),
		func(a A) M[A] { return Then(cleanup, Return(a)) },
	)
}

// OnException runs body; if it throws, handler runs for its effects and
// the exception is re-raised.
func OnException[A any](body M[A], handler M[Unit]) M[A] {
	return Catch(body, func(err error) M[A] {
		return Then(handler, Throw[A](err))
	})
}

// Ensure runs body with cleanup registered on the thread's cleanup stack:
// cleanup runs exactly once, whether body completes, throws, or the thread
// dies abnormally — an uncaught exception, a panic trapped by the runtime,
// or a discard when Shutdown drains the queues. It is the stronger sibling
// of Finally, for releasing external resources (descriptors, admission
// slots, semaphore permits) that a dead thread's trace can never give
// back; cleanup is a plain function because it may run outside the
// thread, on the runtime's abort path. Cleanup must be brief, must not
// block, and must not call back into the monad.
func Ensure[A any](cleanup func(), body M[A]) M[A] {
	return Bind(pushCleanup(cleanup), func(Unit) M[A] {
		return Bind(
			Catch(body, func(err error) M[A] {
				return Then(popCleanup(true), Throw[A](err))
			}),
			func(a A) M[A] { return Then(popCleanup(true), Return(a)) },
		)
	})
}

// pushCleanup registers fn on the current thread's cleanup stack.
func pushCleanup(fn func()) M[Unit] {
	return func(k func(Unit) Trace) Trace {
		return &CleanupNode{Fn: fn, Cont: k(Unit{})}
	}
}

// popCleanup removes the most recent cleanup frame, running it when run is
// set.
func popCleanup(run bool) M[Unit] {
	return func(k func(Unit) Trace) Trace {
		return &PopCleanupNode{Run: run, Cont: k(Unit{})}
	}
}

// Suspend parks the thread until an external event supplies a value of
// type A. register is called with a typed resume function; whichever event
// loop, device model, or callback owns the event must call it exactly once.
// It is WaitNode's general spelling, for event sources that hand back a
// value: one record per application, and per park one resume closure,
// which checks the record's generation so that a resume from an earlier
// park — or a second one for this park — panics.
func Suspend[A any](register func(resume func(A))) M[A] {
	return func(k func(A) Trace) Trace {
		w := new(WaitNode)
		w.Arm = func() {
			armed := w.state.Load()
			register(func(a A) {
				if w.state.Load() != armed {
					panic("core: Suspend resumed twice")
				}
				w.Cont = k(a)
				w.Wake()
			})
		}
		return w
	}
}

// Blio performs a blocking effect off the worker event loops (the paper's
// sys_blio, §4.6), so they are never stalled by synchronous OS interfaces.
// On a real clock the effect runs on its own goroutine; the Go runtime
// hands a blocked syscall's thread off, which is the paper's pool. On a
// virtual clock it runs as one clock event at the current timestamp,
// inside the clock's event batch, so it must not block there: simulated
// interfaces (the kernel's file system) never do.
func Blio[A any](f func() A) M[A] {
	return func(k func(A) Trace) Trace {
		return &BlioNode{Effect: func() Trace { return k(f()) }}
	}
}

// Blioe is Blio for effects that may fail; a non-nil error is raised as a
// monadic exception.
func Blioe[A any](f func() (A, error)) M[A] {
	return func(k func(A) Trace) Trace {
		return &BlioNode{Effect: func() Trace {
			a, err := f()
			if err != nil {
				return &ThrowNode{Err: err}
			}
			return k(a)
		}}
	}
}

// Sleep suspends the thread for d on the given clock. On a virtual clock
// this advances simulation time; on a real clock it is a timer wait. It is
// the basis for timeouts. Each application is one record that owns a
// clock timer, made at its first arm and re-armed after, so a retained
// Sleep re-forced for every request allocates nothing.
func Sleep(clk vclock.Clock, d vclock.Duration) M[Unit] {
	return func(k func(Unit) Trace) Trace {
		s := &sleepSpine{clk: clk, d: d, k: k}
		s.w.Arm = s.arm
		return &s.w
	}
}

type sleepSpine struct {
	w   WaitNode
	clk vclock.Clock
	d   vclock.Duration
	k   func(Unit) Trace
	t   *vclock.Timer // bound to s.wake at the first arm
}

func (s *sleepSpine) arm() {
	if s.t == nil {
		s.t = s.clk.NewTimer(s.wake)
	}
	s.t.Reset(s.d)
}

// wake runs as the timer callback, with the clock's busy hold; Wake
// enqueues the thread, and the runtime takes its own hold for every
// queued thread, so no explicit transfer is needed here.
func (s *sleepSpine) wake() {
	s.w.Cont = s.k(Unit{})
	s.w.Wake()
}
