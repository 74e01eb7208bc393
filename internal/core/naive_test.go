package core

// ---------------------------------------------------------------------------
// Naive (closure-spine) reference combinators
// ---------------------------------------------------------------------------
//
// These are the original closure spellings of Seq, the stack-safe loop
// combinators and Poll: every iteration rebuilds its continuation closure
// and allocates a fresh trampoline node (naiveBounce). They live with the
// tests as the executable specification for the fused fast paths in
// fuse.go — FuzzFusedEquivalence and fuse_test.go assert the fused
// combinators produce the same effect order and results.

// naiveBounce is the naive loops' trampoline: a SYS_NBIO record made
// fresh for every iteration, whose step runs the next one.
type naiveBounce struct{ next func() Trace }

func (*naiveBounce) traceNode()    {}
func (b *naiveBounce) Step() Trace { return b.next() }

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
// a freshly allocated continuation and bounces through a fresh node on
// every iteration.
func NaiveLoop(body M[bool]) M[Unit] {
	return func(k func(Unit) Trace) Trace {
		var iter func() Trace
		iter = func() Trace {
			return body(func(again bool) Trace {
				if !again {
					return k(Unit{})
				}
				return &naiveBounce{iter}
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
				return &naiveBounce{func() Trace { return iter(i + 1) }}
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
