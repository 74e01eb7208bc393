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
