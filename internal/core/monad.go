package core

// M is the CPS concurrency monad: a computation that produces a value of
// type A, represented as a function from the rest of the thread (the
// continuation, of type func(A) Trace) to the thread's trace. This is the
// paper's
//
//	newtype M a = M ((a -> Trace) -> Trace)
//
// written with Go generics. Go has no higher-kinded types, so return and
// bind are top-level generic functions rather than methods of a Monad
// class, and there is no do-notation: threads are written by chaining Bind
// and the loop combinators in fuse.go (the "monadic style forced" trade-off
// of this reproduction).
type M[A any] func(k func(A) Trace) Trace

// Return lifts a value into the monad: given a continuation, it simply
// invokes it on the value.
func Return[A any](x A) M[A] {
	return func(k func(A) Trace) Trace { return k(x) }
}

// Bind sequentially composes two computations, threading the continuation
// through both: Bind(m, f) runs m, passes its result to f, and runs the
// resulting computation.
func Bind[A, B any](m M[A], f func(A) M[B]) M[B] {
	return func(k func(B) Trace) Trace {
		return m(func(a A) Trace { return f(a)(k) })
	}
}

// Then sequences two computations, discarding the result of the first
// (Haskell's >>).
func Then[A, B any](m M[A], n M[B]) M[B] {
	return func(k func(B) Trace) Trace {
		return m(func(A) Trace { return n(k) })
	}
}

// Map applies a pure function to the result of a computation (fmap).
func Map[A, B any](m M[A], f func(A) B) M[B] {
	return func(k func(B) Trace) Trace {
		return m(func(a A) Trace { return k(f(a)) })
	}
}

// Skip is the unit computation: it does nothing (Haskell's return ()).
var Skip M[Unit] = Return(Unit{})

// BuildTrace converts a thread into its trace by supplying the final
// continuation (a leaf RetNode), exactly as the paper's build_trace.
func BuildTrace(m M[Unit]) Trace {
	return m(func(Unit) Trace { return ret })
}

// ---------------------------------------------------------------------------
// Naive (closure-spine) reference combinators
// ---------------------------------------------------------------------------
//
// These are the original closure spellings of Seq and the stack-safe loop
// combinators: every iteration rebuilds its continuation closure and
// allocates a fresh trampoline NBIONode. They are retained as the
// executable specification for the fused fast paths in fuse.go — the
// FuzzFusedEquivalence differential test asserts the fused combinators
// produce the same effect order and results. New code should use the
// unprefixed combinators.

// NaiveSeq is the closure-spine reference for Seq.
func NaiveSeq(ms ...M[Unit]) M[Unit] {
	switch len(ms) {
	case 0:
		return Skip
	case 1:
		return ms[0]
	}
	return func(k func(Unit) Trace) Trace {
		var step func(i int) Trace
		step = func(i int) Trace {
			if i == len(ms)-1 {
				return ms[i](k)
			}
			return ms[i](func(Unit) Trace { return step(i + 1) })
		}
		return step(0)
	}
}

// NaiveLoop is the closure-spine reference for Loop: it re-applies body to
// a freshly allocated continuation and bounces through a fresh NBIONode on
// every iteration.
func NaiveLoop(body M[bool]) M[Unit] {
	return func(k func(Unit) Trace) Trace {
		var iter func() Trace
		iter = func() Trace {
			return body(func(again bool) Trace {
				if !again {
					return k(Unit{})
				}
				return &NBIONode{Effect: iter}
			})
		}
		return iter()
	}
}

// NaiveForN is the closure-spine reference for ForN.
func NaiveForN(n int, body func(i int) M[Unit]) M[Unit] {
	return func(k func(Unit) Trace) Trace {
		var iter func(i int) Trace
		iter = func(i int) Trace {
			if i >= n {
				return k(Unit{})
			}
			return body(i)(func(Unit) Trace {
				return &NBIONode{Effect: func() Trace { return iter(i + 1) }}
			})
		}
		return iter(0)
	}
}

// NaivePoll is the closure-spine reference for Poll — Figure 10 as the
// paper writes it: every attempt is a fresh NBIO whose result is what to
// do next, and every Block parks on a fresh record that arm links into
// the event source.
func NaivePoll[A any](attempt func() (A, Readiness, error), arm Armer) M[A] {
	var try func() M[A]
	try = func() M[A] {
		return Bind(NBIO(func() M[A] {
			a, r, err := attempt()
			switch {
			case err != nil:
				return Throw[A](err)
			case r == Block:
				return func(k func(A) Trace) Trace {
					return &WaitNode{Armer: arm, Cont: try()(k)}
				}
			case r == Again:
				return try()
			}
			return Return(a)
		}), func(next M[A]) M[A] { return next })
	}
	return try()
}
